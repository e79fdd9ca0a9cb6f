"""Gaussian mixture layer tests: kernel, density, mean functional, toy data."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diffmix import mixture
from diffmix.measure import (StickConfig, sample_sticks,
                             sticks_to_weights_matrix)
from diffmix.mixture import (CenteringMeasure, gaussian_logpdf,
                             renormalised_mixture, simulate_toy, toy_mean)
from oracles import centering_logpdf, centering_posterior


@lru_cache  # leggauss solves an n x n eigenproblem; reuse its nodes
def unit_gauss_legendre(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def density(sticks, means, precisions, y):
    """Renormalised mixture density at the points y, one row per time."""
    means, precisions = np.asarray(means), np.asarray(precisions)
    sticks = np.asarray(sticks, dtype=float).reshape(len(means), -1)
    return renormalised_mixture(
        sticks, kernel(np.asarray(y)[None, :], means[:, None],
                       precisions[:, None]))


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def kernel(y, mean, precision):
    return np.exp(gaussian_logpdf(y, mean, precision))


class TestKernel:
    def test_peak_value(self):
        assert kernel(2.0, 2.0, 1.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_symmetry(self):
        assert kernel(0.5 + 0.7, 0.5, 3.0) == pytest.approx(
            kernel(0.5 - 0.7, 0.5, 3.0))

    def test_integrates_to_one(self):
        grid, w = unit_gauss_legendre(-9.0, 7.0, 400)
        assert w @ kernel(grid, -1.0, 4.0) == pytest.approx(1.0, abs=1e-8)

    def test_distance_past_double_range_is_minus_inf(self):
        # the squared distance overflows; the log density is exactly -inf
        assert gaussian_logpdf(1e300, 0.0, 1.0) == -np.inf


class TestDensityEval:
    def test_single_dominant_atom(self):
        grid = np.linspace(-2, 5, 20)
        np.testing.assert_allclose(density([1 - 1e-10], [1.5], [2.0], grid)[0],
                                   kernel(grid, 1.5, 2.0), rtol=1e-8)

    def test_renormalized_integrates_to_one(self):
        # weights 0.4, 0.3, 0.2 with deficit 0.1
        grid, w = unit_gauss_legendre(-14.0, 12.0, 600)
        dens = density([0.4, 0.5, 2.0 / 3.0], [0.0, 1.0, -2.0],
                       [1.0, 4.0, 0.5], grid)[0]
        assert w @ dens == pytest.approx(1.0, abs=1e-6)

    def test_bimodal_with_separated_atoms(self):
        # weights 0.5 and 0.5 - 1e-9
        grid = np.linspace(-2, 2, 401)
        dens = density([0.5, 1.0 - 2e-9], [-1.0, 1.0], [100.0, 100.0],
                       grid)[0]
        modes = grid[np.r_[False, (dens[1:-1] > dens[:-2])
                           & (dens[1:-1] > dens[2:]), False]]
        assert len(modes) == 2
        np.testing.assert_allclose(modes, [-1.0, 1.0], atol=0.02)


def mean_functional(sticks, means):
    """First moment of the renormalised mixture at one time."""
    return float(renormalised_mixture(np.asarray(sticks)[:, None],
                                      np.asarray(means))[0])


class TestMeanFunctional:
    def test_single_atom(self):
        assert mean_functional([1 - 1e-12], [3.25]) == pytest.approx(
            3.25, abs=1e-9)

    def test_deficit_arithmetic(self):
        # weights 0.5 and 0.25 keep mass 0.75
        assert mean_functional([0.5, 0.5], [0.0, 4.0]) == pytest.approx(
            4.0 / 3.0, abs=1e-9)

    def test_agrees_with_quadrature(self):
        # weights 0.35, 0.3 and 0.25
        sticks = [0.35, 0.3 / 0.65, 0.25 / 0.35]
        means, precs = [0.5, -1.0, 2.0], [2.0, 1.0, 5.0]
        grid, w = unit_gauss_legendre(-12.0, 13.0, 800)
        quad = w @ (grid * density(sticks, means, precs, grid)[0])
        assert mean_functional(sticks, means) == pytest.approx(quad, abs=1e-6)


@st.composite
def mixture_states(draw):
    """(sticks, means, precisions): m components at n times."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    sticks = draw(hnp.arrays(float, (m, n),
                             elements=st.floats(0.02, 0.98)))
    means = draw(hnp.arrays(float, m, elements=st.floats(-2.0, 2.0)))
    precs = draw(hnp.arrays(float, m, elements=st.floats(0.5, 4.0)))
    return sticks, means, precs


class TestRenormalisedMixture:
    @settings(max_examples=60, deadline=None)
    @given(mixture_states(), st.integers(0, 2 ** 32 - 1))
    def test_shapes_agree_with_per_time_density(self, state, seed):
        sticks, means, precs = state
        n_times = sticks.shape[1]
        # precisions >= 0.5 and |means| <= 2 keep all mass inside +-15
        grid, w = unit_gauss_legendre(-15.0, 15.0, 600)
        surface = density(sticks, means, precs, grid)
        for i in range(n_times):
            np.testing.assert_allclose(
                surface[i], density(sticks[:, i], means, precs, grid)[0],
                rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(surface @ w, 1.0, atol=1e-8)
        # per-observation form: each value at its own time
        rng = np.random.default_rng(seed)
        tidx = rng.integers(0, n_times, size=12)
        ys = rng.uniform(-3.0, 3.0, size=12)
        per_obs = renormalised_mixture(
            sticks, kernel(ys[:, None], means[None, :], precs[None, :]),
            tidx)
        expected = [density(sticks[:, t], means, precs, [y])[0, 0]
                    for t, y in zip(tidx, ys)]
        np.testing.assert_allclose(per_obs, expected, rtol=1e-12)
        np.testing.assert_allclose(
            renormalised_mixture(sticks, means),
            [mean_functional(sticks[:, i], means) for i in range(n_times)],
            rtol=1e-12, atol=1e-15)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
           st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_stack_slices_are_their_own_calls(self, k, m, n, g, seed):
        # a (k, m, n) stack gives each matrix the bits of its own call,
        # and that call the bits of the product form w' v / (1 - prod(1 - v))
        rng = np.random.default_rng(seed)
        sticks = rng.uniform(0.02, 0.98, (k, m, n))
        vectors = rng.normal(size=(k, m))
        matrices = rng.uniform(0, 1, (k, m, g))
        stacked = [renormalised_mixture(sticks, v) for v in (vectors, matrices)]
        for i in range(k):
            w = sticks_to_weights_matrix(sticks[i])
            kept = 1.0 - np.prod(1.0 - sticks[i], axis=0)
            for out, values in zip(stacked, (vectors[i], matrices[i])):
                own = renormalised_mixture(sticks[i], values)
                product = w.T @ values
                product = product / (kept[:, None] if product.ndim == 2
                                     else kept)
                assert own.tobytes() == product.tobytes()
                assert out[i].tobytes() == own.tobytes()

    def test_kept_mass_below_resolution(self):
        # at the second time every stick is below 1.1e-16, where
        # 1 - prod(1 - v) rounds to 0: the kept mass is the sum of the
        # weights there, and every other time keeps the product form
        sticks = np.array([[0.5, 1e-20, 0.5], [0.25, 3e-20, 0.25]])
        means = np.array([1.0, -1.0])
        out = renormalised_mixture(sticks, means)
        w = sticks_to_weights_matrix(sticks)
        assert out[1] == pytest.approx((1e-20 - 3e-20) / 4e-20, rel=1e-15)
        kept = 1.0 - np.prod(1.0 - sticks[:, [0, 2]], axis=0)
        assert out[[0, 2]].tobytes() == ((w.T @ means)[[0, 2]] / kept).tobytes()
        per_obs = renormalised_mixture(sticks, np.tile(means, (3, 1)),
                                       np.arange(3))
        assert per_obs.tobytes() == out.tobytes()


class TestPriorPredictive:
    def test_marginal_density_matches_centering_predictive(self, rng):
        # E over measure draws of the mixture density at a point equals
        # the normal-gamma predictive (a scaled Student t) at that point
        from scipy import stats as sps
        cm = CenteringMeasure()
        points = np.array([0.0, 4.0, 12.0])
        reps = 3000
        sticks = sample_sticks(StickConfig.dp(1.0), 1e-4, rng, reps)
        atoms = cm.sample(rng, sticks.size).reshape(*sticks.shape, 2)
        vals = np.array([density(sticks[:, r], atoms[:, r, 0],
                                 atoms[:, r, 1], points)[0]
                         for r in range(reps)])
        df = 2.0 * cm.shape
        scale = np.sqrt(cm.rate * (cm.precision_scale + 1.0)
                        / (cm.shape * cm.precision_scale))
        predictive = sps.t.pdf(points, df=df, loc=cm.mean0, scale=scale)
        se = vals.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(vals.mean(axis=0) - predictive) < 3 * se + 1e-12)


class TestCenteringMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            CenteringMeasure(precision_scale=0.0)

    def test_posterior_with_no_data_is_prior(self):
        cm = CenteringMeasure()
        post = centering_posterior(cm, np.array([]))
        assert post == cm

    def test_posterior_moments(self, rng):
        # conjugate update pulls the location toward the sample mean
        cm = CenteringMeasure(mean0=0.0, precision_scale=1e-3, shape=10.0,
                              rate=1.0)
        ys = np.array([2.0, 2.2, 1.8])
        post = centering_posterior(cm, ys)
        assert post.precision_scale == pytest.approx(3.001)
        assert post.mean0 == pytest.approx(ys.sum() / 3.001)
        assert post.shape == pytest.approx(11.5)

    def test_sample_shape(self, rng):
        cm = CenteringMeasure()
        atoms = cm.sample(rng, 7)
        assert atoms.shape == (7, 2)
        assert np.all(atoms[:, 1] > 0)

    def test_logpdf_matches_scipy_factorisation(self):
        from scipy import stats
        cm = CenteringMeasure(mean0=0.5, precision_scale=0.5, shape=3.0,
                              rate=1.5)
        for mean, prec in [(0.0, 1.0), (2.5, 0.2), (-1.0, 7.0)]:
            expected = (stats.norm.logpdf(mean, 0.5, 1.0 / np.sqrt(0.5 * prec))
                        + stats.gamma.logpdf(prec, 3.0, scale=1.0 / 1.5))
            assert centering_logpdf(cm, mean, prec) == pytest.approx(
                expected, rel=1e-12)


class TestSimulateToy:
    def test_shapes_and_grid(self, rng):
        data = simulate_toy(100, 1, 10.0, rng)
        assert data.n_times == 100
        assert data.n_obs == 100
        np.testing.assert_allclose(data.times[0], 0.0)
        np.testing.assert_allclose(data.times[-1], 10.0)
        gaps = np.diff(data.times)
        np.testing.assert_allclose(gaps, gaps[0])

    def test_multiple_per_time(self, rng):
        data = simulate_toy(100, 5, 10.0, rng)
        assert data.n_obs == 500
        assert all(len(v) == 5 for v in data.values)

    def test_mean_matches_target(self, rng):
        n = 100_000
        data = simulate_toy(3, n, 2.6, rng)
        se = np.sqrt(mixture.TOY_VARIANCE / n)
        for t, vals in zip(data.times, data.values):
            assert abs(vals.mean() - toy_mean(t)) < 3.5 * se

    def test_variance_matches_target(self, rng):
        data = simulate_toy(1, 100_000, 1.0, rng)
        assert data.values[0].var() == pytest.approx(mixture.TOY_VARIANCE,
                                                     rel=0.03)

    def test_deterministic_under_seed(self):
        a = simulate_toy(20, 3, 4.0, np.random.default_rng(5))
        b = simulate_toy(20, 3, 4.0, np.random.default_rng(5))
        for va, vb in zip(a.values, b.values):
            np.testing.assert_array_equal(va, vb)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_toy(0, 1, 1.0, rng)
        with pytest.raises(ValueError):
            simulate_toy(1, 0, 1.0, rng)
