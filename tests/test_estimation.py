"""Posterior-summary and diagnostics tests."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmix import estimation
from diffmix.estimation import (coverage_report, effective_sample_size,
                                gelman_rubin, histogram_mode, summarize)
from diffmix.store import PosteriorDraws
from oracles import one_shot_exports, one_shot_summarize


def toy_draws(rng, n_draws=40, m=3, n_times=4):
    sticks = np.full((n_draws, m, n_times), np.nan)
    mean = np.full((n_draws, m), np.nan)
    prec = np.full((n_draws, m), np.nan)
    for i in range(n_draws):
        sticks[i] = rng.uniform(0.2, 0.8, size=(m, n_times))
        mean[i] = rng.normal(0, 1, size=m)
        prec[i] = rng.gamma(10, 0.1, size=m) + 1.0
    return PosteriorDraws(
        times=np.linspace(0, 1, n_times), m=np.full(n_draws, m),
        theta=rng.gamma(2, 1, size=n_draws), c=rng.gamma(2, 1, size=n_draws),
        sticks=sticks, atom_mean=mean, atom_prec=prec)


def ragged_draws(rng, n_draws, n_times, m_max=6):
    """Draws whose truncation m varies from 1 to m_max, NaN-padded."""
    m = rng.integers(1, m_max + 1, size=n_draws)
    m[0] = m_max
    sticks = np.full((n_draws, m_max, n_times), np.nan)
    mean = np.full((n_draws, m_max), np.nan)
    prec = np.full((n_draws, m_max), np.nan)
    for i, mi in enumerate(m):
        sticks[i, :mi] = rng.uniform(0.05, 0.95, size=(mi, n_times))
        mean[i, :mi] = rng.normal(0, 1, size=mi)
        prec[i, :mi] = rng.gamma(10, 0.1, size=mi) + 1.0
    return PosteriorDraws(
        times=np.linspace(0, 1, n_times), m=m,
        theta=rng.gamma(2, 1, size=n_draws), c=rng.gamma(2, 1, size=n_draws),
        sticks=sticks, atom_mean=mean, atom_prec=prec)


SURFACE_ARRAYS = ("times", "y_grid", "dens_q025", "dens_q50", "dens_q975",
                  "dens_mean", "mean_mode", "mean_mean", "mean_median",
                  "mean_lo", "mean_hi")


@pytest.fixture
def rng():
    return np.random.default_rng(8)


class TestSummarize:
    def test_single_draw_degenerate(self, rng):
        draws = toy_draws(rng, n_draws=1)
        grid = np.linspace(-3, 3, 31)
        surf = summarize(draws, grid)
        np.testing.assert_allclose(surf.dens_q025, surf.dens_q975)
        np.testing.assert_allclose(surf.dens_q50, surf.dens_mean)
        np.testing.assert_allclose(surf.mean_lo, surf.mean_hi)
        np.testing.assert_allclose(surf.mean_mode, surf.mean_mean, atol=1e-9)

    def test_quantile_ordering_and_nonnegativity(self, rng):
        surf = summarize(toy_draws(rng), np.linspace(-4, 4, 41))
        assert np.all(surf.dens_q025 <= surf.dens_q50 + 1e-15)
        assert np.all(surf.dens_q50 <= surf.dens_q975 + 1e-15)
        assert np.all(surf.dens_q025 >= 0)
        assert np.all(surf.mean_lo <= surf.mean_median + 1e-15)
        assert np.all(surf.mean_median <= surf.mean_hi + 1e-15)

    def test_permutation_invariance(self, rng):
        draws = toy_draws(rng)
        grid = np.linspace(-3, 3, 21)
        surf1 = summarize(draws, grid)
        perm = rng.permutation(draws.n_draws)
        shuffled = PosteriorDraws(
            times=draws.times, m=draws.m[perm], theta=draws.theta[perm],
            c=draws.c[perm], sticks=draws.sticks[perm],
            atom_mean=draws.atom_mean[perm], atom_prec=draws.atom_prec[perm])
        surf2 = summarize(shuffled, grid)
        np.testing.assert_allclose(surf1.dens_q50, surf2.dens_q50)
        np.testing.assert_allclose(surf1.mean_mode, surf2.mean_mode)

    def test_density_rows_integrate_to_one(self, rng):
        draws = toy_draws(rng)
        grid = np.linspace(-8, 8, 801)
        surf = summarize(draws, grid)
        integral = np.trapezoid(surf.dens_mean, grid, axis=1)
        np.testing.assert_allclose(integral, 1.0, atol=1e-3)

    def test_exports(self, rng, tmp_path):
        surf = summarize(toy_draws(rng), np.linspace(-2, 2, 11))
        dens_path = tmp_path / "d.csv"
        mean_path = tmp_path / "m.csv"
        json_path = tmp_path / "s.json"
        surf.to_density_csv(dens_path)
        surf.to_mean_csv(mean_path)
        surf.to_json(json_path)
        header = dens_path.read_text().splitlines()[0]
        assert header == "t,y,q025,q50,q975,mean"
        assert mean_path.read_text().splitlines()[0] == "t,mode,mean,lo,hi"
        payload = json.loads(json_path.read_text())
        assert "density" in payload and "mean_functional" in payload

    def test_empty_draws_rejected(self, rng):
        draws = toy_draws(rng, n_draws=1)
        empty = PosteriorDraws(
            times=draws.times, m=draws.m[:0], theta=draws.theta[:0],
            c=draws.c[:0], sticks=draws.sticks[:0],
            atom_mean=draws.atom_mean[:0], atom_prec=draws.atom_prec[:0])
        with pytest.raises(ValueError):
            summarize(empty, np.linspace(-1, 1, 5))


class TestBlocks:
    """The block-wise surface against the one-shot (draws x times x grid)
    reference, bit for bit, and its exports byte for byte."""

    @pytest.mark.parametrize("n_draws, n_times, grid_n, width", [
        (30, 8, 11, 2), (30, 7, 11, 3), (30, 9, 11, 4), (30, 9, 11, 1),
        (30, 1, 11, 2), (1, 5, 2, 2), (1, 1, 2, 2), (25, 50, 41, None),
    ], ids=["even", "tail_of_1", "tail_of_1_wider", "width_floor",
            "one_time", "one_draw_two_points", "one_of_each", "one_block"])
    def test_matches_one_shot(self, rng, monkeypatch, tmp_path, n_draws,
                              n_times, grid_n, width):
        # width: times per block from the entry budget (None keeps it)
        draws = ragged_draws(rng, n_draws, n_times)
        grid = np.linspace(-3, 3, grid_n)
        if width is not None:
            monkeypatch.setattr(estimation, "_BLOCK_ENTRIES",
                                width * n_draws * grid_n)
        surf = summarize(draws, grid)
        ref = one_shot_summarize(draws, grid)
        for name in SURFACE_ARRAYS:
            assert np.array_equal(getattr(surf, name), getattr(ref, name)), \
                name
        paths = [tmp_path / f"s.{end}" for end in
                 ("density.csv", "mean.csv", "json")]
        surf.to_density_csv(paths[0])
        surf.to_mean_csv(paths[1])
        surf.to_json(paths[2])
        for path, ref_path in zip(paths, one_shot_exports(ref,
                                                          tmp_path / "ref")):
            assert path.read_bytes() == open(ref_path, "rb").read(), path

    @pytest.mark.parametrize("n_times", [1, 2, 3, 7, 8, 9, 10, 41])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_time_blocks_cover_in_order(self, monkeypatch, n_times, width):
        monkeypatch.setattr(estimation, "_BLOCK_ENTRIES", width * 10)
        blocks = estimation._time_blocks(n_times, 10)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_times
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [t1 - t0 for t0, t1 in blocks]
        assert min(sizes) >= min(2, n_times)
        assert max(sizes) <= max(2, width) + 1

    def test_traced_peak_below_tenth_of_one_shot(self, rng):
        # 50 draws x 1,600 times x 161 points: the one-shot reference
        # holds 103 MB of densities and np.quantile copies them
        draws = toy_draws(rng, n_draws=50, n_times=1600)
        grid = np.linspace(-4, 8, 161)
        peaks = []
        for fn in (summarize, one_shot_summarize):
            tracemalloc.start()
            try:
                fn(draws, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.1 * peaks[1], peaks


class TestHistogramMode:
    def test_degenerate(self):
        assert histogram_mode(np.full(100, 2.5)) == 2.5

    def test_finds_bulk(self, rng):
        x = np.concatenate([rng.normal(0, 0.05, 5000),
                            rng.uniform(-4, 4, 500)])
        assert abs(histogram_mode(x)) < 0.2

    def test_deterministic(self, rng):
        x = rng.normal(size=1000)
        assert histogram_mode(x) == histogram_mode(x)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(-3, 3), min_size=1, max_size=60)
           | st.lists(st.integers(-4000, 4000).map(lambda i: i / 1000),
                      min_size=1, max_size=60),
           bins=st.sampled_from([1, 7, 32]),
           mass=st.sampled_from([0.001, 0.1, 1.0, 1.5]))
    def test_matches_brute_force_window_search(self, values, bins, mass):
        x = np.array(values, dtype=float)
        assert histogram_mode(x, bins, mass) == _brute_force_mode(x, bins, mass)


def _brute_force_mode(x, bins, mass):
    """Every bin window, O(bins^2): the midpoint of the smallest
    (width, -mass, start) among those holding at least mass * len(x)."""
    if x.max() == x.min():
        return float(x[0])
    counts, edges = np.histogram(x, bins=bins)
    best = None
    for i in range(bins):
        for j in range(i + 1, bins + 1):
            held = int(counts[i:j].sum())
            if held >= mass * x.size and (best is None
                                          or (j - i, -held, i) < best):
                best = (j - i, -held, i)
    if best is None:
        return float(0.5 * (edges[0] + edges[-1]))
    width, _, start = best
    return float(0.5 * (edges[start] + edges[start + width]))


class TestGelmanRubin:
    def test_iid_chains_near_one(self, rng):
        chains = [rng.normal(size=10_000) for _ in range(4)]
        psrf = gelman_rubin(chains)
        assert 1.0 <= psrf < 1.1

    def test_disjoint_chains_large(self, rng):
        chains = [rng.normal(0, 1, 1000), rng.normal(50, 1, 1000)]
        assert gelman_rubin(chains) > 10

    def test_constant_traces_error(self):
        with pytest.raises(ValueError):
            gelman_rubin([np.ones(100), np.ones(100)])

    def test_needs_two_chains(self, rng):
        with pytest.raises(ValueError):
            gelman_rubin([rng.normal(size=100)])

    def test_unequal_lengths(self, rng):
        with pytest.raises(ValueError):
            gelman_rubin([rng.normal(size=100), rng.normal(size=99)])


class TestEffectiveSampleSize:
    def test_iid_near_length(self, rng):
        n = 10_000
        ess = effective_sample_size(rng.normal(size=n))
        assert 0.8 * n <= ess <= n

    def test_ar1_closed_form(self, rng):
        n = 200_000
        rho = 0.5
        x = np.empty(n)
        x[0] = rng.normal()
        noise = rng.normal(size=n) * np.sqrt(1 - rho ** 2)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + noise[i]
        ess = effective_sample_size(x)
        target = n * (1 - rho) / (1 + rho)
        assert abs(ess - target) / target < 0.2

    def test_constant_trace_error(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.ones(100))

    def test_near_constant_trace_minimal_ess(self, rng):
        # barely moving chain: either an error or a tiny effective size
        n = 20_000
        rho = 0.999
        x = np.empty(n)
        x[0] = 0.0
        noise = rng.normal(size=n) * np.sqrt(1 - rho ** 2)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + noise[i]
        try:
            ess = effective_sample_size(x)
        except ValueError:
            return
        assert ess < 0.01 * n

    def test_short_trace_error(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.arange(5))


class TestCoverage:
    def test_truth_at_median_is_covered(self, rng):
        draws = toy_draws(rng)
        grid = np.linspace(-3, 3, 21)
        surf = summarize(draws, grid)
        report = coverage_report(
            surf,
            truth_mean=lambda t: float(np.interp(t, surf.times,
                                                 surf.mean_median)),
            truth_density=lambda t, y: surf.dens_q50[
                int(np.argmin(np.abs(surf.times - t)))])
        assert report.mean_coverage == 1.0
        assert report.density_coverage == 1.0

    def test_far_truth_uncovered(self, rng):
        draws = toy_draws(rng)
        grid = np.linspace(-3, 3, 21)
        surf = summarize(draws, grid)
        report = coverage_report(
            surf, truth_mean=lambda t: 1e6,
            truth_density=lambda t, y: np.full_like(np.asarray(y), 1e6))
        assert report.mean_coverage == 0.0
        assert report.density_coverage == 0.0

    def test_grid_mismatch(self, rng):
        draws = toy_draws(rng)
        surf = summarize(draws, np.linspace(-3, 3, 21))
        with pytest.raises(ValueError):
            coverage_report(surf, truth_mean=lambda t: 0.0,
                            truth_density=lambda t, y: np.zeros(3))
