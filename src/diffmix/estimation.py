"""Posterior summarisation and convergence diagnostics.

Turns draw archives into density surfaces (pointwise quantiles over a
time x value grid), mean-functional bands, and the usual chain health
numbers (potential scale reduction factor, effective sample size).
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .mixture import gaussian_logpdf, renormalised_mixture
from .store import PosteriorDraws

MODE_BINS = 512
MODE_MASS = 0.10
QUANTILES = (0.025, 0.5, 0.975)
# float64 entries in one (draws x times x grid) block of the density
# surface. A block spans at least two times: numpy evaluates a one-time
# block's mixture by its matrix-vector path, which can differ from the
# matrix product in the last bit.
_BLOCK_ENTRIES = 1 << 19
# float64 entries of the largest product one stacked call writes (and of
# the stick rows a mean-functional call reads, or of the (times x bins)
# tables of one histogram_mode pass), so temporaries stay small beside
# the block
_PART_ENTRIES = 1 << 15


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

    def export(self, prefix) -> list[str]:
        """Write PREFIX.density.csv, PREFIX.mean.csv and PREFIX.json, the
        bytes the three writers below give, in one pass that formats
        each float once. Returns the three paths."""
        paths = [f"{prefix}.density.csv", f"{prefix}.mean.csv",
                 f"{prefix}.json"]
        self._write(*paths)
        return paths

    def to_density_csv(self, path) -> None:
        """Long-format rows t, y, q025, q50, q975, mean, written one time
        at a time."""
        self._write(density_csv=path)

    def to_mean_csv(self, path) -> None:
        """Mean-functional rows t, mode, mean, lo, hi."""
        self._write(mean_csv=path)

    def to_json(self, path) -> None:
        """The bytes of json.dumps on the nested lists of times, y_grid,
        density (q025, q50, q975, mean) and mean_functional (mode, mean,
        median, lo, hi)."""
        self._write(json_path=path)

    def _write(self, density_csv=None, mean_csv=None, json_path=None):
        """Write each export that has a path, in one pass over the times
        that formats each float once, by repr, so it reads back exactly;
        the JSON spells nan, inf and -inf as json.dumps does. The JSON's
        times go straight to it and each later section to a temporary
        file beside it, appended at the end, so memory holds one time row
        of each array whatever the number of times."""
        dens = [getattr(self, name) for name in _DENSITY_ARRAYS]
        line = [getattr(self, name) for name in _MEAN_ARRAYS]
        y = _reprs(self.y_grid)
        with ExitStack() as files:
            def opened(path, header):
                fh = files.enter_context(open(path, "w", encoding="utf-8",
                                              newline=""))
                fh.write(_csv_line(header))
                return fh
            dens_csv = density_csv and opened(
                density_csv, ["t", "y", "q025", "q50", "q975", "mean"])
            mean_csv = mean_csv and opened(
                mean_csv, ["t", "mode", "mean", "lo", "hi"])
            js = json_path and files.enter_context(open(json_path, "wb"))
            staged = []
            if js:
                js.write(b'{"times": [')
                beside = os.path.dirname(os.path.abspath(json_path))
                staged = [files.enter_context(tempfile.TemporaryFile(
                    dir=beside)) for _ in dens + line]
            for i in range(len(self.times)):
                t = repr(self.times[i].item())
                values = [repr(a[i].item()) for a in line]
                rows = [_reprs(a[i]) for a in dens] if dens_csv or js else ()
                if dens_csv:
                    dens_csv.write("".join(map(_csv_line,
                                               zip(repeat(t), y, *rows))))
                if mean_csv:
                    mode, mean, _, lo, hi = values
                    mean_csv.write(_csv_line((t, mode, mean, lo, hi)))
                if js:
                    sep = ", " if i else ""
                    js.write(f"{sep}{_JSON_WORDS.get(t, t)}".encode())
                    for fh, text in zip(staged, [*map(_json_list, rows), *(
                            _JSON_WORDS.get(v, v) for v in values)]):
                        fh.write(f"{sep}{text}".encode())
            if not js:
                return
            js.write(f'], "y_grid": {_json_list(y)}'.encode())
            parts = iter(staged)
            for section, keys in (("density", _DENSITY_ARRAYS),
                                  ("mean_functional", _MEAN_ARRAYS)):
                js.write(f', "{section}": {{'.encode())
                for j, key in enumerate(keys):
                    js.write(f'{", " if j else ""}"{key.split("_")[1]}": ['
                             .encode())
                    fh = next(parts)
                    fh.seek(0)
                    shutil.copyfileobj(fh, js, 1 << 14)
                    js.write(b"]")
                js.write(b"}")
            js.write(b"}")


# the surface arrays of the JSON's two sections, in order, each keyed by
# the name after its prefix; the mean CSV has all but the median
_DENSITY_ARRAYS = ("dens_q025", "dens_q50", "dens_q975", "dens_mean")
_MEAN_ARRAYS = ("mean_mode", "mean_mean", "mean_median", "mean_lo",
                "mean_hi")
# json.dumps's words for the floats whose repr holds an "n"
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float, the shortest text that reads back exactly."""
    return list(map(repr, values.tolist()))


def _json_list(reprs: list[str]) -> str:
    """json.dumps of the list of floats with these reprs."""
    text = ", ".join(reprs)
    if "n" in text:
        text = ", ".join([_JSON_WORDS.get(r, r) for r in reprs])
    return f"[{text}]"


def _csv_line(fields) -> str:
    """csv.writer's line of float reprs: none needs quoting, and lines
    end in \\r\\n."""
    return ",".join(fields) + "\r\n"


def histogram_mode(samples: np.ndarray, bins: int = MODE_BINS,
                   mass: float = MODE_MASS):
    """Midpoint of the shortest bin window holding at least `mass`.

    A deterministic highest-density summary: histogram the draws into
    equal-width bins, slide the shortest contiguous window whose mass
    reaches the target, and report its midpoint. Ties pick the heavier,
    then the leftmost, window. Takes a vector of draws, giving a float,
    or a (draws x series) matrix, giving each column's mode at once. The
    bins are np.histogram's: edges from np.linspace over the column's
    range, each draw in the bin np.histogram counts it in, and the same
    ValueError for a non-finite range. A finite range too narrow for
    `bins` distinct edges (a few ulps wide) has no bin to pick; its mode
    is the range's midpoint 0.5 (lo + hi).
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("no samples")
    cols = x.reshape(len(x), -1)
    lo, hi = cols.min(axis=0), cols.max(axis=0)
    out = cols[0].copy()  # a constant column's mode is its value
    live = np.flatnonzero(~(lo == hi))
    for part in _parts(len(live), len(x) + bins):
        at = live[part]
        out[at] = _window_modes(cols[:, at], lo[at], hi[at], bins, mass)
    return float(out[0]) if x.ndim == 1 else out


def _window_modes(x, lo, hi, bins: int, mass: float) -> np.ndarray:
    """histogram_mode of each column of x, whose range [lo, hi] is not a
    point: np.histogram's bins and counts, then one search of every
    column's windows."""
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not finite.all():
        k = np.argmin(finite)
        raise ValueError(f"autodetected range of [{lo[k]}, {hi[k]}] is not "
                         "finite")
    cols = np.arange(x.shape[1])
    # np.linspace(lo, hi, bins + 1) per column, its subnormal-step branch
    # included
    delta = hi - lo
    step = delta / bins
    edges = np.arange(bins + 1.0)[:, None] * step
    tiny = step == 0
    if tiny.any():
        edges[:, tiny] = np.arange(bins + 1.0)[:, None] / bins * delta[tiny]
    edges += lo
    edges[-1] = hi
    narrow = np.any(edges[:-1] >= edges[1:], axis=0)
    if narrow.any():
        # the midpoint 0.5 (lo + hi), without overflow: hi - lo is exact
        out = lo + 0.5 * (hi - lo)
        wide = ~narrow
        out[wide] = _window_modes(x[:, wide], lo[wide], hi[wide], bins, mass)
        return out
    # np.histogram's bin of each draw: the scaled offset, then one step
    # down or up where rounding put it past an edge
    index = ((x - lo) / delta * bins).astype(np.intp)
    index[index == bins] -= 1
    index[x < np.take_along_axis(edges, index, axis=0)] -= 1
    index[(x >= np.take_along_axis(edges, index + 1, axis=0))
          & (index != bins - 1)] += 1
    counts = np.bincount((index + cols * bins).ravel(),
                         minlength=bins * len(cols)).reshape(-1, bins)
    csum = np.zeros((len(cols), bins + 1), dtype=np.intp)
    np.cumsum(counts, axis=1, out=csum[:, 1:])
    # each start's shortest window: the first end whose count reaches the
    # target (counts are integers, so ceil keeps the search exact). Every
    # column's sums are shifted past the previous column's largest target,
    # so one search of the flattened sums serves every column
    need = math.ceil(mass * len(x))
    shift = (cols * (len(x) + need + 1))[:, None]
    start = np.arange(bins)
    end = np.searchsorted((csum + shift).ravel(), csum[:, :-1] + need + shift)
    end = np.maximum(end - (cols * (bins + 1))[:, None], start + 1)
    fits = end <= bins  # a mass above 1 fits no window: the full range
    end = np.minimum(end, bins)
    # smallest (width, -mass, start), as one integer key
    held = np.take_along_axis(csum, end, axis=1) - csum[:, :-1]
    key = ((end - start) * (len(x) + 1) + len(x) - held) * bins + start
    best = np.where(fits, key, np.iinfo(key.dtype).max).argmin(axis=1)
    first = np.where(fits.any(axis=1), best, 0)
    last = np.where(fits.any(axis=1), end[cols, best], bins)
    return 0.5 * (edges[first, cols] + edges[last, cols])


def _time_blocks(n_times: int, per_time: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of times holding at most
    _BLOCK_ENTRIES entries at per_time entries a time, but never fewer
    than two times: a one-time tail joins the block before it."""
    width = max(2, _BLOCK_ENTRIES // per_time)
    starts = list(range(0, n_times, width))
    if n_times - starts[-1] == 1 and len(starts) > 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_times]))


def _parts(count: int, per_row: int) -> list[slice]:
    """Consecutive slices of range(count), each at most
    _PART_ENTRIES // per_row long but never empty."""
    step = max(1, _PART_ENTRIES // per_row)
    return [slice(i, i + step) for i in range(0, count, step)]


def _sorted_quantiles(x: np.ndarray, mean: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """np.quantile(x, QUANTILES, axis=0) into out, bit for bit, sorting x
    in place along axis 0; mean is x.mean(axis=0). Each quantile is
    numpy's linear rule (Hyndman & Fan type 7) at the virtual index
    (n - 1) q, with its two-sided lerp. A column holding a NaN gives its
    NaN, as np.quantile does: the sort may rewrite a NaN's sign, so the
    NaN is taken from the unsorted column (the first, in a column whose
    NaNs differ), found through its mean, which is then NaN too."""
    holes = np.isnan(mean)
    if holes.any():
        own = x[:, holes]
        nan = own[np.isnan(own).argmax(axis=0), np.arange(own.shape[1])]
    x.sort(axis=0)
    n = len(x)
    for q, res in zip(QUANTILES, out):
        index = (n - 1) * q
        lo = -1 if index >= n - 1 else math.floor(index)
        hi = -1 if lo == -1 else lo + 1
        gamma = index - lo
        diff = x[hi] - x[lo]
        if gamma >= 0.5:
            np.subtract(x[hi], diff * (1 - gamma), out=res)
        else:
            np.add(x[lo], diff * gamma, out=res)
    if holes.any():
        last = x[-1].copy()
        last[holes] = nan
        np.copyto(out, last, where=np.isnan(x[-1]))
    return out


def summarize(draws: PosteriorDraws, y_grid) -> DensitySurface:
    """Evaluate every draw on the grid and reduce to pointwise summaries.

    Densities are renormalised by the retained weight mass of each draw
    so each curve integrates to one. Draws of one truncation level m
    share one (draws x m x grid) stack of Gaussian kernels, and each
    block of times takes one stacked product per level (in parts of
    bounded size), written back in draw order: every draw's densities
    and mean functional are the bits of its own renormalised_mixture
    call. The (draws x times x grid) surface is built and reduced one
    block of times at a time, so memory does not grow with the number of
    times: with the mean taken, each block is sorted along its draws
    axis and its quantiles read by numpy's linear rule, the bits
    np.quantile gives.
    """
    if draws.n_draws == 0:
        raise ValueError("empty draws")
    y_grid = np.asarray(y_grid, dtype=float)
    n = len(draws.times)
    grid_n = len(y_grid)
    d = draws.n_draws
    groups = []
    mean_fn = np.empty((d, n))
    for m in np.unique(draws.m).tolist():
        rows = np.flatnonzero(draws.m == m)
        kernels = np.empty((len(rows), m, grid_n))
        for part in _parts(len(rows), m * max(n, grid_n)):
            at = rows[part]
            kernels[part] = np.exp(gaussian_logpdf(
                y_grid, draws.atom_mean[at, :m, None],
                draws.atom_prec[at, :m, None]))
            mean_fn[at] = renormalised_mixture(draws.sticks[at, :m],
                                               draws.atom_mean[at, :m])
        groups.append((rows, kernels))
    q, dens_mean = _density_quantiles(draws, y_grid, groups)
    # the mean functional is reduced once the blocks' buffer is freed, so
    # its histogram tables reuse that memory instead of raising the peak
    mean_mean = mean_fn.mean(axis=0)
    mode = histogram_mode(mean_fn)
    lo, med, hi = _sorted_quantiles(mean_fn, mean_mean, np.empty((3, n)))
    return DensitySurface(
        times=np.asarray(draws.times, dtype=float), y_grid=y_grid,
        dens_q025=q[0], dens_q50=q[1], dens_q975=q[2], dens_mean=dens_mean,
        mean_mode=mode, mean_mean=mean_mean, mean_median=med,
        mean_lo=lo, mean_hi=hi)


def _density_quantiles(draws: PosteriorDraws, y_grid: np.ndarray, groups):
    """The (3, times, grid) density quantiles and the (times, grid) mean
    over draws, built and reduced one block of times at a time from each
    truncation level's (rows, kernels)."""
    d, n, grid_n = draws.n_draws, len(draws.times), len(y_grid)
    q = np.empty((3, n, grid_n))
    dens_mean = np.empty((n, grid_n))
    blocks = _time_blocks(n, d * grid_n)
    # one buffer for every block, each viewed as a contiguous prefix
    buffer = np.empty(d * max(t1 - t0 for t0, t1 in blocks) * grid_n)
    for t0, t1 in blocks:
        dens = buffer[:d * (t1 - t0) * grid_n].reshape(d, t1 - t0, grid_n)
        for rows, kernels in groups:
            m = kernels.shape[1]
            for part in _parts(len(rows), (t1 - t0) * grid_n):
                dens[rows[part]] = renormalised_mixture(
                    draws.sticks[rows[part], :m, t0:t1], kernels[part])
        # the mean adds in draw order; with it taken, the order may go
        dens_mean[t0:t1] = dens.mean(axis=0)
        _sorted_quantiles(dens, dens_mean[t0:t1], q[:, t0:t1])
    return q, dens_mean


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
