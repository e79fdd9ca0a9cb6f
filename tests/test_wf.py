"""Wright-Fisher engine tests: invariant law, series weights, transitions.

Independent oracles: Gauss-Legendre quadrature for density normalisation,
scipy Beta facts for the invariant law, Euler-Maruyama endpoints and the
linear-drift conditional-mean identity for the transition law.
"""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from diffmix import wf
from diffmix.errors import SeriesTruncationError
from diffmix.wf import WFParams
from oracles import (lineage_table_loggamma, pair_mixture_density,
                     transition_mixture_component)


def unit_gauss_legendre(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestParams:
    def test_rejects_nonpositive(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 2, 1)]:
            with pytest.raises(ValueError):
                WFParams(*bad)

    def test_rejects_non_finite_naming_the_parameter(self):
        inf = float("inf")
        for args, named in (((1, inf, 1), "b"), ((1, 2, inf), "c"),
                            ((np.nan, 2, 1), "a")):
            with pytest.raises(ValueError,
                               match=f"^{named} must be positive and finite"):
                WFParams(*args)

    def test_rejects_entrance_violation(self):
        with pytest.raises(ValueError):
            WFParams(0.4, 0.5, 1.0)

    def test_standard_rate(self):
        p = WFParams.standard(1.0, 4.0)
        assert p.c == pytest.approx(2.0)
        # standard clock change is the identity
        assert p.standardised_time(0.7) == pytest.approx(0.7)


class TestSeriesWeights:
    def test_m0_closed_form(self):
        p = WFParams(1, 4, 2)
        t = 0.5
        assert wf.nb_weight(0, t, p) == pytest.approx(
            (1.0 - np.exp(-p.c * t)) ** (p.a + p.b), rel=1e-12)

    def test_sums_to_one(self):
        p = WFParams(1, 4, 2)
        total = wf.nb_weight(np.arange(201), 0.5, p).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_large_t_all_mass_at_zero(self):
        p = WFParams(1, 4, 2)
        assert wf.nb_weight(0, 50.0, p) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_index_controls_tail(self):
        p = WFParams(1, 4, 2)
        m = wf.nb_truncation_index(0.2, p, 1e-8)
        tail = 1.0 - wf.nb_weight(np.arange(m + 1), 0.2, p).sum()
        assert tail < 1e-8
        # one index earlier the tail must exceed the tolerance
        tail_prev = 1.0 - wf.nb_weight(np.arange(m), 0.2, p).sum()
        assert tail_prev >= 1e-8

    def test_truncation_cap_error(self):
        # at t = 1e-7 the series needs far more than DEFAULT_SERIES_CAP terms
        p = WFParams(1, 4, 2)
        with pytest.raises(SeriesTruncationError, match="exceeds cap"):
            wf.nb_truncation_index(1e-7, p, 1e-10)

    @pytest.mark.parametrize("r, ct", [(5.2, 0.41), (3.0, 0.1)])
    def test_cumulative_stops_at_resolved_tail(self, r, ct):
        # for these keys rounding holds 1 - partial sum near 2e-15, so a
        # stop on it would sum all cap + 1 terms
        cap = wf.DEFAULT_SERIES_CAP
        cum = wf._nb_cumulative(r, ct)
        assert len(cum) < 1000
        full = np.cumsum(np.exp(wf.log_nb_weight(np.arange(cap + 1.0), r, ct)))
        np.testing.assert_array_equal(cum, full[:len(cum)])
        assert full[-1] - cum[-1] < 1e-15
        p = WFParams(r / 2.0, r / 2.0, ct)
        draws = wf.sample_nb(1.0, p, np.random.default_rng(8), size=20_000)
        u = np.random.default_rng(8).uniform(size=20_000)
        np.testing.assert_array_equal(
            draws, np.minimum(np.searchsorted(full, u), cap))
        for tol in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
            assert wf.nb_truncation_index(1.0, p, tol) == \
                int(np.searchsorted(full, 1.0 - tol))

    @settings(max_examples=60, deadline=None)
    @given(r=st.sampled_from([1.0001, 1.7, 2.3, 5.2, 40.0, 2500.0]),
           cts=st.lists(st.sampled_from([1e-3, 0.01, 0.05, 0.1, 0.41, 1.0,
                                         3.7, 40.0, 800.0, 1e308,
                                         float("inf")])
                        | st.floats(1e-3, 50.0), min_size=1, max_size=9))
    def test_batched_tables_match_one_key(self, r, cts):
        # one call for many keys, sharing its block coefficients, gives
        # each key's table alone, in length and bits, however far apart
        # the keys stop
        tables = wf._nb_series(r, cts)
        for ct, cum in zip(cts, tables, strict=True):
            alone = wf._nb_series(r, [ct])[0]
            assert len(cum) == len(alone)
            assert cum.tobytes() == alone.tobytes()
            assert cum.tobytes() == _one_key_loop(r, ct).tobytes()

    def test_batched_tables_stop_in_different_blocks(self):
        # the table lengths of these keys end in five different blocks
        cts = [40.0, 0.41, 0.1, 0.02, 0.004, 0.41]
        lengths = [len(cum) for cum in wf._nb_series(2.3, cts)]
        assert len(set(lengths)) == 5
        assert lengths[1] == lengths[-1]

    def test_store_keeps_a_bounded_count_of_tables(self, monkeypatch):
        # more distinct keys than the store holds: every table is still
        # the one built alone, and the store keeps the last distinct ones
        monkeypatch.setattr(wf, "_nb_store", {})
        cts = [0.01 + 1e-4 * i for i in range(wf._NB_STORE_SIZE + 40)]
        cums = wf._nb_cumulatives(1.7, cts + cts[:3])
        assert list(wf._nb_store) == [
            (1.7, ct) for ct in cts[-wf._NB_STORE_SIZE:]]
        for ct, cum in zip(cts + cts[:3], cums, strict=True):
            assert cum.tobytes() == wf._nb_series(1.7, [ct])[0].tobytes()
        assert cums[0] is cums[-3]
        assert wf._nb_cumulative(1.7, cts[-1]) is cums[len(cts) - 1]

    def test_huge_size_refused_not_nan(self, rng):
        # log Gamma(a + b) is inf: the weights would be inf - inf = NaN
        p = WFParams(1.0, 1e308, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SeriesTruncationError,
                               match=r"a \+ b = 1e\+308 leaves double range"):
                wf.sample_nb(0.5, p, rng, size=3)

    def test_sample_nb_matches_pmf(self, rng):
        p = WFParams(1.5, 2.5, 1.0)
        t = 0.4
        draws = wf.sample_nb(t, p, rng, size=50_000)
        for m in range(4):
            freq = np.mean(draws == m)
            prob = wf.nb_weight(m, t, p)
            se = np.sqrt(prob * (1 - prob) / 50_000)
            assert abs(freq - prob) < 4 * se + 1e-4


class TestLineageWeights:
    def test_sums_to_one(self):
        p = WFParams(1, 4, 2)
        for t in (0.05, 0.3, 2.0):
            q = wf.lineage_weights(t, p, tol=1e-10)
            assert q.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(q >= 0)

    def test_large_t_all_mass_at_zero(self):
        p = WFParams(1, 4, 2)
        q = wf.lineage_weights(40.0, p)
        assert q[0] == pytest.approx(1.0, abs=1e-10)

    def test_mean_identity(self):
        # E[m / (theta + m)] equals the exact exponential decay factor
        p = WFParams(2, 3, 1.5)
        theta = p.a + p.b
        for t in (0.2, 0.7):
            q = wf.lineage_weights(t, p, tol=1e-13)
            m = np.arange(len(q))
            slope = float((q * m / (theta + m)).sum())
            assert slope == pytest.approx(
                np.exp(-wf.mean_reversion_rate(p) * t), abs=1e-9)

    @pytest.mark.parametrize("ts, dps", [(5.0, 40), (1.0, 40), (0.2, 40),
                                         (0.1, 40), (0.05, 40), (0.02, 56)])
    def test_ratio_rows_match_loggamma_rows(self, ts, dps):
        # theta = 5 is (a, b) = (1, 4); dps is the precision
        # _lineage_cumulative starts from at this time
        assert_decimal_table_matches_loggamma(5.0, ts, dps)

    @pytest.mark.parametrize("theta, ts, dps", [(1.5, 0.03, 45),
                                                (3.7, 0.05, 40),
                                                (8.0, 0.02, 56)])
    def test_decimal_rows_match_loggamma_rows_off_theta_five(
            self, theta, ts, dps):
        # the product first term and the cached step ratios at other
        # theta; dps is the precision _lineage_cumulative starts from
        assert_decimal_table_matches_loggamma(theta, ts, dps)

    @pytest.mark.parametrize("theta, ts, dps", [(5.0, 0.05, 40),
                                                (5.0, 0.075, 40),
                                                (2.0, 0.01, 90)])
    def test_decimal_tables_draw_the_loggamma_indices(self, theta, ts, dps):
        # the decimal and the reference tables differ below about 1e-20;
        # a million inverse-CDF draws at seed 0 must not see it. dps is the
        # precision the decimal table resolves at
        weights = np.clip(lineage_table_loggamma(theta, ts, dps), 0.0, None)
        weights /= weights.sum()
        draws = [wf._draw_index(cum, np.random.default_rng(0), 10 ** 6)
                 for cum in (wf._lineage_cumulative.__wrapped__(theta, ts),
                             np.cumsum(weights))]
        np.testing.assert_array_equal(*draws)

    @pytest.mark.parametrize("theta, ts, digits", [(5.0, 0.1, 40),
                                                   (5.0, 0.09, 40),
                                                   (5.0, 0.05, 40),
                                                   (5.0, 0.02, 56),
                                                   (1.5, 0.03, 45),
                                                   (8.0, 0.02, 56),
                                                   (2.0, 0.01, 90)])
    def test_one_decimal_table_per_build(self, monkeypatch, theta, ts,
                                         digits):
        # every table is built in decimal, once, at the precision the
        # largest term asks for
        precisions = []
        table = wf._lineage_table

        def spy(theta, ts, ctx):
            precisions.append(ctx.prec)
            return table(theta, ts, ctx)

        monkeypatch.setattr(wf, "_lineage_table", spy)
        wf._lineage_cumulative.__wrapped__(theta, ts)
        assert precisions == [digits]

    def test_term_past_double_range_raises(self):
        # the largest terms pass e^700 near ts 0.002: more digits than
        # the 320-digit cap, where a float would overflow
        with pytest.raises(SeriesTruncationError, match="stable"):
            wf._lineage_cumulative.__wrapped__(5.0, 0.002)

    @pytest.mark.parametrize("ts", [1e-20, 1e-310])
    def test_tiny_time_raises_before_any_row(self, ts):
        # the largest term comes from its closed form, so the precision
        # cap refuses the time before a row is summed
        with pytest.raises(SeriesTruncationError, match="stable"):
            wf._lineage_cumulative.__wrapped__(5.0, ts)

    def test_infinite_time_refused(self):
        with pytest.raises(ValueError, match="positive and finite"):
            wf._lineage_cumulative.__wrapped__(5.0, np.inf)


class TestMixtureComponent:
    def test_m0_is_invariant_density(self):
        p = WFParams(1, 4, 2)
        val = transition_mixture_component(0.37, 0, 0.8, p)
        assert val == pytest.approx(stats.beta(1, 4).pdf(0.37), rel=1e-12)

    def test_m1_v0_one_shifts_first_shape(self):
        p = WFParams(1, 4, 2)
        val = transition_mixture_component(0.3, 1, 1.0, p)
        assert val == pytest.approx(stats.beta(2, 4).pdf(0.3), rel=1e-12)

    def test_integrates_to_one(self):
        p = WFParams(1, 4, 2)
        x, w = unit_gauss_legendre(256)
        dens = transition_mixture_component(x, 3, 0.3, p)
        assert w @ dens == pytest.approx(1.0, abs=1e-8)


def assert_decimal_table_matches_loggamma(theta, ts, dps):
    """The dps-digit decimal lineage table has the reference's length and
    lies within 1e-15 of it."""
    table, _ = wf._lineage_table(theta, ts, wf._lineage_context(dps))
    ref = lineage_table_loggamma(theta, ts, dps)
    assert len(table) == len(ref)
    np.testing.assert_allclose(table, ref, rtol=0.0, atol=1e-15)


def series_log_weights(t, p, tol=1e-9):
    m_max = wf.nb_truncation_index(t, p, tol)
    return wf.log_nb_weight(np.arange(m_max + 1), p.a + p.b, p.c * t)


def lineage_log_weights(t, p, tol=1e-9):
    with np.errstate(divide="ignore"):
        return np.log(wf.lineage_weights(t, p, tol=tol))


def assert_matches_pair_oracle(log_weights, v0, x, p):
    """The blocked evaluator against one exponential per pair and node:
    relative 1e-12 wherever the oracle is above 1e-250, never negative."""
    dens = wf._mixture_density(log_weights, v0, x, p)
    ref = pair_mixture_density(log_weights, v0, x, p)
    assert np.all(dens >= 0.0)
    keep = ref > 1e-250
    np.testing.assert_allclose(dens[keep], ref[keep], rtol=1e-12, atol=0.0)


class TestMixtureEvaluator:
    @pytest.mark.parametrize("t", [0.05, 0.5, 5.0])
    @pytest.mark.parametrize("law", [series_log_weights, lineage_log_weights])
    def test_validate_grids(self, t, law):
        # the nodes and weights check_transition_normalization integrates
        p = WFParams(1, 4, 2)
        support = max(len(wf.lineage_weights(t, p, tol=1e-9)),
                      wf.nb_truncation_index(t, p, 1e-9))
        x, _ = unit_gauss_legendre(max(256, min(2048, support + 64)))
        for v0 in (0.1, 0.5, 0.9):
            assert_matches_pair_oracle(law(t, p), v0, x, p)

    @pytest.mark.parametrize("v0", [0.0, 1.0])
    @pytest.mark.parametrize("law", [series_log_weights, lineage_log_weights])
    def test_start_on_the_boundary(self, v0, law):
        p = WFParams(1.5, 2.5, 1.0)
        x = np.linspace(0.001, 0.999, 301)
        assert_matches_pair_oracle(law(0.1, p), v0, x, p)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_single_components(self, m):
        p = WFParams(1, 4, 2)
        x = np.linspace(0.001, 0.999, 301)
        log_weights = np.full(m + 1, -np.inf)
        log_weights[m] = 0.0
        for v0 in (0.0, 0.3, 1.0):
            dens = transition_mixture_component(x, m, v0, p)
            ref = pair_mixture_density(log_weights, v0, x, p)
            np.testing.assert_allclose(dens, ref, rtol=1e-12, atol=0.0)

    def test_large_index_near_both_ends(self):
        # M near 1,600: exponents span thousands of units across (0, 1),
        # which one global shift cannot hold in double range
        p = WFParams(1, 4, 2)
        log_weights = series_log_weights(0.01, p)
        assert len(log_weights) > 1500
        x = np.concatenate([[1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9],
                            np.linspace(0.0005, 0.9995, 41)])
        assert_matches_pair_oracle(log_weights, 0.3, x, p)

    def test_shape_follows_v1(self):
        p = WFParams(1, 4, 2)
        x = np.array([[0.9, 0.2], [0.5, 0.01]])
        dens = wf.series_transition_density(x, 0.4, 0.3, p)
        assert dens.shape == (2, 2)
        flat = wf.series_transition_density(x.ravel(), 0.4, 0.3, p)
        np.testing.assert_array_equal(dens.ravel(), flat)
        assert isinstance(wf.series_transition_density(0.2, 0.4, 0.3, p),
                          float)


class TestTransitionDensity:
    def test_large_t_converges_to_invariant(self):
        p = WFParams(1, 4, 2)
        grid = np.linspace(0.02, 0.98, 25)
        dens = wf.transition_density(grid, 0.7, 60.0, p)
        np.testing.assert_allclose(dens, stats.beta(p.a, p.b).pdf(grid),
                                   rtol=1e-7)

    def test_quadrature_normalisation(self):
        p = WFParams(1, 4, 2)
        x, w = unit_gauss_legendre(512)
        for t, v0 in [(0.25, 0.5), (0.1, 0.2)]:
            dens = wf.transition_density(x, v0, t, p, tol=1e-9)
            assert w @ dens == pytest.approx(1.0, abs=1e-6)

    def test_series_density_normalisation(self):
        p = WFParams(1, 4, 2)
        x, w = unit_gauss_legendre(512)
        dens = wf.series_transition_density(x, 0.3, 0.25, p, tol=1e-9)
        assert w @ dens == pytest.approx(1.0, abs=1e-6)

    def test_matches_euler_histogram(self, rng):
        # scaled-down version of the full acceptance run
        p = WFParams(1, 4, 2)
        n = 20_000
        exact = wf.sample_transition(np.full(n, 0.2), 0.1, p, rng)
        euler = wf.euler_endpoints(0.2, 0.1, 2e-4, p, rng, size=n)
        ks = stats.ks_2samp(exact, euler).statistic
        assert ks < 0.015

    def test_nonnegative(self):
        p = WFParams(1, 4, 2)
        grid = np.linspace(0.001, 0.999, 199)
        assert np.all(wf.transition_density(grid, 0.9, 0.15, p) >= 0.0)


class TestSampleTransition:
    def test_preserves_invariant_law(self, rng):
        p = WFParams(1, 4, 2)
        n = 100_000
        start = rng.beta(p.a, p.b, size=n)
        moved = wf.sample_transition(start, 0.1, p, rng)
        ref = rng.beta(p.a, p.b, size=n)
        assert stats.ks_2samp(moved, ref).pvalue > 0.001

    def test_autocorrelation_decay(self, rng):
        # Corr(v0, v1) = exp(-rate t) exactly: the drift is linear in v
        p = WFParams(1, 4, 2)
        n = 100_000
        t = 0.35
        start = rng.beta(p.a, p.b, size=n)
        moved = wf.sample_transition(start, t, p, rng)
        r_hat = np.corrcoef(start, moved)[0, 1]
        target = np.exp(-wf.mean_reversion_rate(p) * t)
        se = (1 - r_hat ** 2) / np.sqrt(n)
        assert abs(r_hat - target) < 3 * se

    def test_small_t_concentrates(self, rng):
        p = WFParams(1, 4, 2)
        spread = []
        for t in (0.4, 0.1, 0.05):
            draws = wf.sample_transition(np.full(4000, 0.5), t, p, rng)
            spread.append(draws.std())
        assert spread[0] > spread[1] > spread[2]

    def test_matches_transition_density_cdf(self, rng):
        p = WFParams(1.5, 2.0, 1.0)
        n = 50_000
        draws = wf.sample_transition(np.full(n, 0.35), 0.4, p, rng)
        grid = np.linspace(1e-6, 1 - 1e-6, 3001)
        dens = wf.transition_density(grid, 0.35, 0.4, p, tol=1e-12)
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        emp = np.interp(np.sort(draws), grid, cdf)
        ks = np.max(np.abs(emp - np.arange(1, n + 1) / n))
        assert ks < 0.01


class TestChapmanKolmogorov:
    def test_two_step_matches_one_step(self, rng):
        p = WFParams(1, 4, 2)
        n = 100_000
        mid = wf.sample_transition(np.full(n, 0.3), 0.3, p, rng)
        end = wf.sample_transition(mid, 0.2, p, rng)
        grid = np.linspace(1e-6, 1 - 1e-6, 4001)
        dens = wf.transition_density(grid, 0.3, 0.5, p, tol=1e-12)
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        emp = np.interp(np.sort(end), grid, cdf)
        ks = np.max(np.abs(emp - np.arange(1, n + 1) / n))
        assert ks < 0.01


class TestMeanReversion:
    def test_dp_case(self):
        theta = 3.0
        p = WFParams(1.0, theta, theta / 2.0)
        assert wf.mean_reversion_rate(p) == pytest.approx((1 + theta) / 2)

    def test_plugins(self):
        assert wf.mean_reversion_rate(WFParams(1, 1, 0.5)) == pytest.approx(1.0)
        assert wf.mean_reversion_rate(WFParams(2, 3, 2)) == pytest.approx(2.5)

    def test_regression_recovers_rate(self, rng):
        p = WFParams(2, 3, 1.5)
        rate = wf.mean_reversion_rate(p)
        ts = np.linspace(0.1, 1.0, 6)
        gaps = []
        for t in ts:
            draws = wf.sample_transition(np.full(100_000, 0.95), float(t),
                                         p, rng)
            gaps.append(abs(draws.mean() - wf.stationary_mean(p)))
        slope = np.polyfit(ts, np.log(gaps), 1)[0]
        assert abs(-slope - rate) / rate < 0.05


def reference_euler(v0, span, step, p, rng, size, noise=True):
    """(n_steps + 1, size) values of the Euler scheme, one step at a time.

    Plain numpy arithmetic and one standard_normal(size) call per step;
    euler_path and euler_endpoints must reproduce it bit for bit.
    """
    n_steps = int(round(span / step))
    denom = p.a + p.b - 1.0
    drift_scale, diff_scale = p.c / denom, 2.0 * p.c / denom
    v = np.full(size, min(max(v0, wf.EULER_CLAMP), 1.0 - wf.EULER_CLAMP))
    values = [v]
    for _ in range(n_steps):
        z = rng.standard_normal(size) if noise else np.zeros(size)
        v = v + drift_scale * (p.a - (p.a + p.b) * v) * step \
            + np.sqrt(diff_scale * v * (1.0 - v)) * np.sqrt(step) * z
        v = np.clip(v, wf.EULER_CLAMP, 1.0 - wf.EULER_CLAMP)
        values.append(v)
    return np.array(values)


EULER_CASES = {
    # b < 1: the boundary at 1 is reached and the clamp acts
    "clamped": (WFParams(1.1, 0.4, 0.7), 0.99, 5.0, 1e-3, True),
    "no_noise": (WFParams(2, 3, 1.5), 0.9, 2.0, 1e-3, False),
    "standard": (WFParams.standard(1, 4), 0.5, 50.0, 0.01, True),
}


class TestEulerBitIdentity:
    @pytest.mark.parametrize("case", EULER_CASES)
    def test_path_matches_reference_loop(self, case):
        p, v0, span, step, noise = EULER_CASES[case]
        ref = reference_euler(v0, span, step, p, np.random.default_rng(5),
                              1, noise)[:, 0]
        path = wf.euler_path(v0, span, step, p, np.random.default_rng(5),
                             noise=noise)
        assert np.array_equal(path, ref)
        if case == "clamped":
            assert np.any(ref == 1.0 - wf.EULER_CLAMP)

    @pytest.mark.parametrize("block", [1, 7, 5000])
    def test_path_blocks_match_reference_loop(self, monkeypatch, block):
        # normals one at a time, in blocks of 7 that end on a partial
        # block, and in one block for the whole path
        monkeypatch.setattr(wf, "EULER_PATH_BLOCK", block)
        for case in ("clamped", "no_noise"):
            p, v0, span, step, noise = EULER_CASES[case]
            ref = reference_euler(v0, span, step, p,
                                  np.random.default_rng(5), 1, noise)[:, 0]
            path = wf.euler_path(v0, span, step, p,
                                 np.random.default_rng(5), noise=noise)
            assert np.array_equal(path, ref)

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_endpoints_match_reference_loop(self, monkeypatch, rows):
        # span 0.7 is 700 steps, whole blocks of 1 or 7 rows; 0.703 is
        # 703 steps, which ends on a partial 7-row block
        p, v0, _, step, _ = EULER_CASES["clamped"]
        size = 40
        if rows is not None:
            monkeypatch.setattr(wf, "EULER_NORMALS_BLOCK", rows * size)
        for span in (0.7, 0.703):
            ref = reference_euler(v0, span, step, p,
                                  np.random.default_rng(9), size)
            out = wf.euler_endpoints(v0, span, step, p,
                                     np.random.default_rng(9), size)
            assert np.array_equal(out, ref[-1])
            assert np.any(ref == 1.0 - wf.EULER_CLAMP)

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_endpoints_leave_the_reference_loops_generator(self, monkeypatch,
                                                            rows):
        # the draw-ahead thread never draws past the last step: 703 steps
        # end on a partial 7-row block, and the default block holds them all
        p, v0, _, step, _ = EULER_CASES["clamped"]
        size = 40
        if rows is not None:
            monkeypatch.setattr(wf, "EULER_NORMALS_BLOCK", rows * size)
        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        reference_euler(v0, 0.703, step, p, ref_rng, size)
        wf.euler_endpoints(v0, 0.703, step, p, rng, size)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_endpoints_raise_a_failed_draw_and_join_its_thread(self,
                                                               monkeypatch):
        class FailsOnThirdBlock:
            def __init__(self):
                self.blocks = 0

            def standard_normal(self, out):
                self.blocks += 1
                if self.blocks == 3:
                    raise RuntimeError("third block")
                out[...] = 0.5

        monkeypatch.setattr(wf, "EULER_NORMALS_BLOCK", 7 * 40)
        p, v0, _, step, _ = EULER_CASES["clamped"]
        threads = threading.active_count()
        rng = FailsOnThirdBlock()
        with pytest.raises(RuntimeError, match="third block"):
            wf.euler_endpoints(v0, 0.703, step, p, rng, 40)
        assert rng.blocks == 3
        assert threading.active_count() == threads


class TestEuler:
    def test_zero_noise_solves_linear_ode(self, rng):
        p = WFParams(2, 3, 1.5)
        path = wf.euler_path(0.9, 2.0, 1e-4, p, rng, noise=False)
        times = np.arange(len(path)) * 1e-4
        rate = wf.mean_reversion_rate(p)
        mu = wf.stationary_mean(p)
        expected = mu + (0.9 - mu) * np.exp(-rate * times)
        np.testing.assert_allclose(path, expected, atol=5e-4)

    def test_ergodic_occupancy(self, rng):
        p = WFParams.standard(1, 4)
        path = wf.euler_path(0.5, 2000.0, 0.01, p, rng)
        ks = stats.kstest(path[2000:], stats.beta(1, 4).cdf).statistic
        assert ks < 0.02

    def test_step_halving_self_convergence(self, rng):
        # endpoint laws at step h and h/2 should agree within MC noise
        p = WFParams(1, 4, 2)
        n = 20_000
        coarse = wf.euler_endpoints(0.2, 0.1, 2e-4, p, rng, size=n)
        fine = wf.euler_endpoints(0.2, 0.1, 1e-4, p, rng, size=n)
        ks = stats.ks_2samp(coarse, fine).statistic
        # two-sample 99.9% quantile is about 1.95 sqrt(2/n)
        assert ks < 2.0 * np.sqrt(2.0 / n)

    def test_path_stays_inside_unit_interval(self, rng):
        p = WFParams(1.1, 0.4, 1.0)
        path = wf.euler_path(0.99, 5.0, 1e-3, p, rng)
        assert np.all(path >= wf.EULER_CLAMP)
        assert np.all(path <= 1 - wf.EULER_CLAMP)

    @pytest.mark.parametrize("v0, step", [(1.5, 1e-3), (-0.5, 1e-3),
                                          (0.5, 0.0), (0.5, 1.0)])
    def test_endpoints_check_start_and_step_like_path(self, rng, v0, step):
        p = WFParams(1, 4, 2)
        with pytest.raises(ValueError) as path_exc:
            wf.euler_path(v0, 0.1, step, p, rng)
        with pytest.raises(ValueError) as end_exc:
            wf.euler_endpoints(v0, 0.1, step, p, rng, size=4)
        assert str(end_exc.value) == str(path_exc.value)


def _one_key_loop(r, ct):
    """wf._nb_cumulative's series for one key as one loop over blocks of
    64, 128, ... indices, each block's weights from log_nb_weight."""
    parts, block, start = [], 64, 0
    while start <= wf.DEFAULT_SERIES_CAP:
        m = np.arange(start, min(start + block, wf.DEFAULT_SERIES_CAP + 1),
                      dtype=float)
        w = np.exp(wf.log_nb_weight(m, r, ct))
        parts.append(w)
        rho = (r + m[-1]) / (m[-1] + 1.0) * np.exp(-ct)
        if rho < 1.0 and w[-1] * rho / (1.0 - rho) < 1e-16:
            break
        start += block
        block = min(2 * block, 1 << 16)
    return np.cumsum(np.concatenate(parts))
