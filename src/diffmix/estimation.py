"""Posterior summarisation and convergence diagnostics.

Turns draw archives into density surfaces (pointwise quantiles over a
time x value grid), mean-functional bands, and the usual chain health
numbers (potential scale reduction factor, effective sample size).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .gibbs import PosteriorDraws
from .mixture import gaussian_logpdf, renormalised_mixture

MODE_BINS = 512
MODE_MASS = 0.10
QUANTILES = (0.025, 0.5, 0.975)
# float64 entries in one (draws x times x grid) block of the density
# surface. A block spans at least two times: numpy evaluates a one-time
# block's mixture by its matrix-vector path, which can differ from the
# matrix product in the last bit.
_BLOCK_ENTRIES = 1 << 19


@dataclass(frozen=True)
class DensitySurface:
    """Pointwise posterior summary of the time-varying density.

    Density arrays have shape (n_times, n_grid); mean-functional arrays
    have shape (n_times,). Quantiles are the empirical 2.5 / 50 / 97.5
    percent order statistics across draws.
    """

    times: np.ndarray
    y_grid: np.ndarray
    dens_q025: np.ndarray
    dens_q50: np.ndarray
    dens_q975: np.ndarray
    dens_mean: np.ndarray
    mean_mode: np.ndarray
    mean_mean: np.ndarray
    mean_median: np.ndarray
    mean_lo: np.ndarray
    mean_hi: np.ndarray

    def to_density_csv(self, path) -> None:
        """Long-format rows t, y, q025, q50, q975, mean, written one time
        at a time."""
        y = [repr(v) for v in self.y_grid.tolist()]
        dens = (self.dens_q025, self.dens_q50, self.dens_q975, self.dens_mean)
        _write_columns(path, ["t", "y", "q025", "q50", "q975", "mean"],
                       ([repeat(repr(t), len(y)), y,
                         *(map(repr, a[i].tolist()) for a in dens)]
                        for i, t in enumerate(self.times.tolist())))

    def to_mean_csv(self, path) -> None:
        """Mean-functional rows t, mode, mean, lo, hi."""
        _write_columns(path, ["t", "mode", "mean", "lo", "hi"],
                       [[map(repr, a.tolist()) for a in
                         (self.times, self.mean_mode, self.mean_mean,
                          self.mean_lo, self.mean_hi)]])

    def to_json(self, path) -> None:
        """The bytes of json.dumps on the nested lists, with each density
        array written one time row at a time."""
        payload = {
            "times": self.times,
            "y_grid": self.y_grid,
            "density": {
                "q025": self.dens_q025,
                "q50": self.dens_q50,
                "q975": self.dens_q975,
                "mean": self.dens_mean,
            },
            "mean_functional": {
                "mode": self.mean_mode,
                "mean": self.mean_mean,
                "median": self.mean_median,
                "lo": self.mean_lo,
                "hi": self.mean_hi,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            _dump_json(fh, payload)


def _write_columns(path, header: list[str], chunks) -> None:
    """CSV of the header and then, chunk by chunk, one row per entry of
    each chunk's equally long columns of repr(float) strings, so values
    read back exactly. These are csv.writer's bytes: no float repr needs
    quoting, and lines end in \\r\\n."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in chunks:
            fh.writelines(row + "\r\n" for row in map(",".join, zip(*columns)))


def _dump_json(fh, obj) -> None:
    """Write json.dumps(obj) for a dict of dicts and float arrays, each
    2-d array one row at a time."""
    if isinstance(obj, dict):
        fh.write("{")
        for k, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if k else ''}{json.dumps(key)}: ")
            _dump_json(fh, value)
        fh.write("}")
    elif obj.ndim == 2:
        fh.write("[")
        for k, row in enumerate(obj):
            fh.write(f"{', ' if k else ''}{json.dumps(row.tolist())}")
        fh.write("]")
    else:
        fh.write(json.dumps(obj.tolist()))


def histogram_mode(samples: np.ndarray, bins: int = MODE_BINS,
                   mass: float = MODE_MASS) -> float:
    """Midpoint of the shortest bin window holding at least `mass`.

    A deterministic highest-density summary: histogram the draws into
    equal-width bins, slide the shortest contiguous window whose mass
    reaches the target, and report its midpoint. Ties pick the heavier,
    then the leftmost, window.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("no samples")
    if x.max() == x.min():
        return float(x[0])
    counts, edges = np.histogram(x, bins=bins)
    csum = np.concatenate([[0], np.cumsum(counts)])
    start = np.arange(bins)
    # each start's shortest window: the first end whose count reaches the
    # target (counts are integers, so ceil keeps the search exact)
    need = math.ceil(mass * x.size)
    end = np.maximum(np.searchsorted(csum, csum[:-1] + need), start + 1)
    fits = end <= bins
    if not fits.any():  # mass target above 1: fall back to the full range
        return float(0.5 * (edges[0] + edges[-1]))
    start, end = start[fits], end[fits]
    # smallest (width, -mass, start)
    best = np.lexsort((start, csum[start] - csum[end], end - start))[0]
    return float(0.5 * (edges[start[best]] + edges[end[best]]))


def _time_blocks(n_times: int, per_time: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of times holding at most
    _BLOCK_ENTRIES entries at per_time entries a time, but never fewer
    than two times: a one-time tail joins the block before it."""
    width = max(2, _BLOCK_ENTRIES // per_time)
    starts = list(range(0, n_times, width))
    if n_times - starts[-1] == 1 and len(starts) > 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_times]))


def summarize(draws: PosteriorDraws, y_grid) -> DensitySurface:
    """Evaluate every draw on the grid and reduce to pointwise summaries.

    Densities are renormalised by the retained weight mass of each draw
    so each curve integrates to one. The (draws x times x grid) surface
    is built and reduced one block of times at a time, so memory does
    not grow with the number of times.
    """
    if draws.n_draws == 0:
        raise ValueError("empty draws")
    y_grid = np.asarray(y_grid, dtype=float)
    n = len(draws.times)
    grid_n = len(y_grid)
    d = draws.n_draws
    kernels = []
    mean_fn = np.empty((d, n))
    for i in range(d):
        mi = int(draws.m[i])
        sticks = draws.sticks[i, :mi, :]
        means = draws.atom_mean[i, :mi]
        precs = draws.atom_prec[i, :mi]
        kernels.append(np.exp(gaussian_logpdf(y_grid[None, :], means[:, None],
                                              precs[:, None])))
        mean_fn[i] = renormalised_mixture(sticks, means)
    q = np.empty((3, n, grid_n))
    dens_mean = np.empty((n, grid_n))
    blocks = _time_blocks(n, d * grid_n)
    # one buffer for every block, each viewed as a contiguous prefix
    buffer = np.empty(d * max(t1 - t0 for t0, t1 in blocks) * grid_n)
    for t0, t1 in blocks:
        dens = buffer[:d * (t1 - t0) * grid_n].reshape(d, t1 - t0, grid_n)
        for i, kernel in enumerate(kernels):
            dens[i] = renormalised_mixture(
                draws.sticks[i, :len(kernel), t0:t1], kernel)
        dens_mean[t0:t1] = dens.mean(axis=0)
        # with the mean taken, np.quantile may reorder the block in place:
        # an entry's order statistics do not depend on the order left
        q[:, t0:t1] = np.quantile(dens, QUANTILES, axis=0,
                                  overwrite_input=True)
    lo, med, hi = np.quantile(mean_fn, QUANTILES, axis=0)
    mode = np.array([histogram_mode(mean_fn[:, i]) for i in range(n)])
    return DensitySurface(
        times=np.asarray(draws.times, dtype=float), y_grid=y_grid,
        dens_q025=q[0], dens_q50=q[1], dens_q975=q[2], dens_mean=dens_mean,
        mean_mode=mode, mean_mean=mean_fn.mean(axis=0), mean_median=med,
        mean_lo=lo, mean_hi=hi)


def gelman_rubin(chains) -> float:
    """Potential scale reduction factor across chains of one scalar.

    Needs at least two chains of equal length >= 10 with positive
    within-chain variance.
    """
    traces = [np.asarray(c, dtype=float) for c in chains]
    if len(traces) < 2:
        raise ValueError("need at least two chains")
    length = len(traces[0])
    if length < 10 or any(len(t) != length for t in traces):
        raise ValueError("chains must share one length of at least 10")
    arr = np.stack(traces)
    within = arr.var(axis=1, ddof=1).mean()
    if within <= 0:
        raise ValueError("degenerate (zero-variance) traces")
    means = arr.mean(axis=1)
    between = length * means.var(ddof=1)
    pooled = (length - 1) / length * within + between / length
    return float(np.sqrt(pooled / within))


def effective_sample_size(trace) -> float:
    """ESS via the initial-positive-sequence autocorrelation estimator.

    Pairwise autocorrelation sums are accumulated until the first
    negative pair; the result is clipped to the trace length.
    """
    x = np.asarray(trace, dtype=float)
    n = len(x)
    if n < 10:
        raise ValueError("trace too short")
    xc = x - x.mean()
    var = xc @ xc / n
    if var <= 0:
        raise ValueError("degenerate (zero-variance) trace")
    size = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real / n
    rho = acov / var
    # tau = 1 + 2 sum_{k>=1} rho_k = -1 + 2 * sum of positive pair sums
    tau = -rho[0]
    t = 0
    while 2 * t + 1 < n:
        pair = rho[2 * t] + rho[2 * t + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
        t += 1
    tau = max(tau, 1.0 / n)
    return float(min(n / tau, float(n)))


@dataclass(frozen=True)
class CoverageReport:
    """Fractions of the truth captured by the posterior bands."""

    mean_coverage: float
    density_coverage: float


def coverage_report(surface: DensitySurface, truth_mean,
                    truth_density) -> CoverageReport:
    """Check band coverage against a known truth.

    truth_mean(t) gives the true mean at a grid time; truth_density(t, y)
    the true density on the surface's y grid (vectorised over y).
    """
    times = surface.times
    mean_hits = 0
    cell_hits = 0
    cells = 0
    for i, t in enumerate(times):
        mu = float(truth_mean(t))
        if surface.mean_lo[i] <= mu <= surface.mean_hi[i]:
            mean_hits += 1
        dens = np.asarray(truth_density(t, surface.y_grid), dtype=float)
        if dens.shape != surface.y_grid.shape:
            raise ValueError("truth_density must match the y grid")
        inside = (surface.dens_q025[i] <= dens) & (dens <= surface.dens_q975[i])
        cell_hits += int(inside.sum())
        cells += len(dens)
    return CoverageReport(mean_coverage=mean_hits / len(times),
                          density_coverage=cell_hits / cells)
