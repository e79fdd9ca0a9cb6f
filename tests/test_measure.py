"""Stick-breaking measure tests: weight maps, marginals, moves, ACF.

The measure is a stick matrix: one row per stick, one column per time or
replicate, drawn by sample_sticks, moved by move_sticks and mapped to
weights by sticks_to_weights_matrix.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from diffmix import measure
from diffmix.measure import (StickConfig, move_sticks, sample_sticks,
                             sticks_to_weights_matrix, theoretical_acf)
from oracles import expected_weight_overlap


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def sticks_from_weights(w):
    """The stick-breaking recursion run backwards, v_j = w_j / rem_j,
    carrying the remaining mass rem_j = prod_{i<j} (1 - v_i)."""
    v, rem = np.empty_like(w), 1.0
    for j, wj in enumerate(w):
        v[j] = wj / rem
        rem *= 1.0 - v[j]
    return v


class TestWeightMaps:
    def test_simple_example(self):
        w = sticks_to_weights_matrix(np.array([0.5, 0.5]))
        np.testing.assert_allclose(w, [0.5, 0.25])
        assert 1.0 - w.sum() == pytest.approx(0.25)

    def test_degenerate_first_stick(self):
        w = sticks_to_weights_matrix(np.array([1 - 1e-12, 0.5, 0.5]))
        assert w[0] == pytest.approx(1.0, abs=1e-11)
        assert np.all(w[1:] < 1e-11)

    def test_identity_sum(self, rng):
        v = rng.uniform(0.01, 0.99, size=50)
        w = sticks_to_weights_matrix(v)
        assert w.sum() + np.prod(1 - v) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=0.5), min_size=1,
                    max_size=10))
    def test_round_trip(self, values):
        # recovery of stick j conditions on the remaining mass at j, so
        # the strategy keeps the remainder well above machine precision
        v = np.array(values)
        w = sticks_to_weights_matrix(v)
        assert np.max(np.abs(sticks_from_weights(w) - v)) < 1e-12
        # an (m, n) matrix maps every column alike, weights plus deficit
        # summing to one in each
        both = sticks_to_weights_matrix(np.column_stack([v, v[::-1]]))
        np.testing.assert_array_equal(
            both, np.column_stack([w, sticks_to_weights_matrix(v[::-1])]))
        np.testing.assert_allclose(both.sum(axis=0) + np.prod(1 - v), 1.0,
                                   rtol=0.0, atol=1e-14)

    def test_round_trip_fifty_dp_sticks(self, rng):
        # a 50-deep truncation is the many-small-sticks regime
        for _ in range(25):
            v = np.clip(rng.beta(1.0, 8.0, size=50), 1e-6, 0.95)
            back = sticks_from_weights(sticks_to_weights_matrix(v))
            assert np.max(np.abs(back - v)) < 1e-12


class TestStickConfig:
    def test_dp_defaults_to_standard_rate(self):
        cfg = StickConfig.dp(3.0)
        assert cfg.c == pytest.approx(1.5)
        a, b = cfg.params(5)
        assert (a[4], b[4], cfg.c) == (1.0, 3.0, 1.5)

    def test_dp_invalid(self):
        with pytest.raises(ValueError):
            StickConfig.dp(0.0)

    def test_pitman_yor_params(self):
        cfg = StickConfig.pitman_yor(1.0, 0.25, c=2.0)
        a, b = cfg.params(3)
        assert a[2] == pytest.approx(0.75)
        assert b[2] == pytest.approx(1.75)
        assert cfg.c == 2.0

    def test_pitman_yor_validation(self):
        with pytest.raises(ValueError):
            StickConfig.pitman_yor(1.0, 1.0)
        # theta <= 0 breaks a_1 + b_1 > 1 even though theta > -sigma
        with pytest.raises(ValueError):
            StickConfig.pitman_yor(-0.1, 0.5)

    def test_gem_validation_and_tail_repeat(self):
        cfg = StickConfig.general_gem([(1.0, 2.0), (1.5, 1.0)], c=1.0)
        a, _ = cfg.params(10)
        assert a[9] == pytest.approx(1.5)
        with pytest.raises(ValueError):
            StickConfig.general_gem([(0.5, 0.4)])

    def test_gem_convergence_warning(self):
        with pytest.warns(UserWarning):
            StickConfig.general_gem([(1.0, 1.0), (1.0, 10.0), (1.0, 100.0)])

    def test_gem_constant_prefix_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            StickConfig.general_gem([(1.0, 2.0), (1.0, 2.0)])

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(0, 40), theta=st.floats(0.05, 20.0),
           sigma=st.floats(0.0, 0.95), c=st.floats(0.01, 10.0),
           pairs=st.lists(st.tuples(st.floats(0.6, 5.0),
                                    st.floats(0.6, 5.0)),
                          min_size=1, max_size=5))
    def test_params_match_closed_forms(self, m, theta, sigma, c, pairs):
        j = np.arange(1, m + 1)
        a, b = StickConfig.dp(1.0).params(m, theta)
        np.testing.assert_array_equal(a, np.ones(m))
        np.testing.assert_array_equal(b, np.full(m, theta))
        # configured values and sampler overrides give the same law
        for cfg, over in ((StickConfig.pitman_yor(theta, sigma, c=c), {}),
                          (StickConfig.pitman_yor(1.0, sigma, c=c),
                           dict(theta=theta))):
            a, b = cfg.params(m, **over)
            np.testing.assert_allclose(a, np.full(m, 1.0 - sigma))
            np.testing.assert_allclose(b, theta + j * sigma)
            assert cfg.c == c
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gem = StickConfig.general_gem(pairs, c=c)
        a, b = gem.params(m, theta=123.0)
        expected = [pairs[min(i, len(pairs)) - 1] for i in j]
        np.testing.assert_array_equal(a, [p[0] for p in expected])
        np.testing.assert_array_equal(b, [p[1] for p in expected])
        assert gem.c == c

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(0, 40), kind=st.sampled_from(["dp", "py", "gem"]),
           theta=st.floats(0.05, 20.0), sigma=st.sampled_from([0.0, 0.4]),
           pairs=st.lists(st.sampled_from([(1.0, 2.0), (0.5, 1.5),
                                           (2.0, 0.5)]),
                          min_size=1, max_size=5))
    def test_stick_runs_partition_by_triple(self, m, kind, theta, sigma,
                                            pairs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = {"dp": StickConfig.dp(theta),
                   "py": StickConfig.pitman_yor(theta, sigma),
                   "gem": StickConfig.general_gem(pairs)}[kind]
        a, b = cfg.params(m)
        runs = measure.stick_runs(a, b, cfg.c)
        laws = list(zip(a, b))
        covered = [j for lo, hi, _ in runs for j in range(lo, hi)]
        assert covered == list(range(m))
        for lo, hi, p in runs:
            assert hi > lo
            assert p.c == cfg.c
            assert all(t == (p.a, p.b) for t in laws[lo:hi])
        for (_, hi, _), (lo, _, _) in zip(runs, runs[1:]):
            assert laws[hi - 1] != laws[lo]


class TestSampleMarginal:
    def test_deficit_below_tolerance(self, rng):
        v = sample_sticks(StickConfig.dp(1.0), 1e-3, rng, reps=50)
        assert np.all(np.prod(1.0 - v, axis=0) < 1e-3)

    def test_expected_stick_count(self, rng):
        # stopping count: first passage of an Exp(theta) random walk over
        # log(1/tol); Wald gives E[count] = theta log(1/tol) + 1. Each
        # column's own first passage, not the shared truncation, is the
        # count.
        theta, tol = 1.0, 0.01
        reps = 4000
        v = sample_sticks(StickConfig.dp(theta), tol, rng, reps)
        passed = np.cumsum(np.log1p(-v), axis=0) < np.log(tol)
        counts = passed.argmax(axis=0) + 1
        expected = theta * np.log(1.0 / tol) + 1.0
        se = counts.std(ddof=1) / np.sqrt(reps)
        assert abs(counts.mean() - expected) < 3 * se

    def test_first_weight_mean(self, rng):
        theta = 2.0
        reps = 4000
        v = sample_sticks(StickConfig.dp(theta), 1e-3, rng, reps)
        w1 = sticks_to_weights_matrix(v)[0]
        se = w1.std(ddof=1) / np.sqrt(reps)
        assert abs(w1.mean() - 1.0 / (1.0 + theta)) < 3 * se

    def test_small_theta_single_atom(self, rng):
        v = sample_sticks(StickConfig.dp(0.05), 1e-3, rng)
        assert sticks_to_weights_matrix(v)[0, 0] > 0.5  # typically near 1


def measure_of_set(sticks, inside):
    """P(A) per column: the summed weights of the atoms inside A."""
    return (sticks_to_weights_matrix(sticks) * inside).sum(axis=0)


class TestEvolve:
    def test_large_dt_decorrelates(self, rng):
        cfg = StickConfig.dp(1.0)
        reps = 2000
        before = sample_sticks(cfg, 1e-3, rng, reps)
        after = move_sticks(before, cfg, 50.0, rng)
        r = np.corrcoef(before[0], after[0])[0, 1]
        assert abs(r) < 3.0 / np.sqrt(reps)

    def test_small_dt_total_variation_shrinks(self, rng):
        cfg = StickConfig.dp(1.0)
        start = sample_sticks(cfg, 1e-4, rng)
        w0 = sticks_to_weights_matrix(start)
        tv = []
        for dt in (1.0, 0.1, 0.01):
            moved = move_sticks(start, cfg, dt, rng)
            tv.append(0.5 * np.abs(sticks_to_weights_matrix(moved) - w0).sum())
        assert tv[0] > tv[2]
        assert tv[2] < 0.1

    def test_stationarity_of_moments(self, rng):
        # after a move, P_t(A) keeps the Dirichlet mean and variance
        theta = 1.0
        cfg = StickConfig.dp(theta)
        reps = 3000
        sticks = sample_sticks(cfg, 1e-4, rng, reps)
        atoms = rng.uniform(size=sticks.shape)
        vals = measure_of_set(move_sticks(sticks, cfg, 0.8, rng), atoms < 0.5)
        se_mean = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - 0.5) < 3 * se_mean
        s2 = vals.var(ddof=1)
        m4 = np.mean((vals - vals.mean()) ** 4)
        se_var = np.sqrt(max(m4 - s2 ** 2, 0) / reps)
        assert abs(s2 - 0.125) < 3 * se_var

    @pytest.mark.parametrize("cfg", [
        StickConfig.pitman_yor(1.0, 0.3),
        StickConfig.general_gem([(1.0, 1.0), (1.0, 2.0), (1.5, 2.5)]),
    ], ids=["pitman_yor", "gem_three_pairs"])
    def test_non_dp_keeps_each_beta_marginal(self, cfg, rng):
        # stationary start: the move must keep stick j Beta(a_j, b_j)
        m, reps = 5, 2000
        a, b = cfg.params(m)
        start = rng.beta(a[:, None], b[:, None], size=(m, reps))
        moved = move_sticks(start, cfg, 0.4, rng)
        for j in range(m):
            ks = stats.kstest(moved[j], stats.beta(a[j], b[j]).cdf)
            assert ks.pvalue > 0.001, (j, ks)


class TestMeasureEval:
    def test_whole_space_and_empty(self, rng):
        v = sample_sticks(StickConfig.dp(1.0), 1e-4, rng, reps=20)
        full = measure_of_set(v, np.ones(v.shape, dtype=bool))
        np.testing.assert_allclose(full, 1.0 - np.prod(1.0 - v, axis=0),
                                   rtol=0.0, atol=1e-12)
        empty = measure_of_set(v, np.zeros(v.shape, dtype=bool))
        np.testing.assert_array_equal(empty, 0.0)


class TestTheoreticalAcf:
    def test_lag_zero_is_one(self):
        for theta in (0.3, 1.0, 5.0):
            assert theoretical_acf(theta, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_long_lag_floor(self):
        assert theoretical_acf(1.0, 1e9) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_series_form_matches_closed_form(self):
        # two independent implementations of the same function
        theta, s = 1.0, 2.0
        via_series = (1.0 + theta) * expected_weight_overlap(theta, s)
        assert via_series == pytest.approx(theoretical_acf(theta, s),
                                           abs=1e-14)

    def test_monotone_decreasing(self):
        lags = np.linspace(0, 10, 50)
        vals = theoretical_acf(2.0, lags)
        assert np.all(np.diff(vals) < 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            theoretical_acf(0.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_acf(1.0, -0.5)
