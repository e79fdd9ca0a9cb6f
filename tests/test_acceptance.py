"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line; run with
`pytest tests/test_acceptance.py -v -s` to see them inline. Tolerances
are pinned here, not configurable.
"""

import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from diffmix import estimation, mixture, validate, wf
from diffmix.data import TimeGridDataset
from diffmix.gibbs import (GammaPrior, SamplerConfig, init_chain, run_chain,
                           update_hyperparams, update_membership,
                           update_transition_latents)
from diffmix.measure import StickConfig, sticks_to_weights_matrix
from diffmix.mixture import CenteringMeasure, gaussian_logpdf

from oracles import (centering_logpdf, centering_posterior,
                     reference_stick_likelihood, run_geweke, stick_joint_tv,
                     transition_mixture_component)


def report(criterion: str, passed: bool, detail: str, seconds: float,
           budget: float) -> None:
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {flag} ({detail}) "
          f"[{seconds:.1f}s / budget {budget:.0f}s]")
    assert passed, f"{criterion}: {detail}"
    assert seconds < budget, f"{criterion}: runtime {seconds:.1f}s over budget"


def run_checks(names, rng_seed=0):
    results = validate.run_validation(names=names, seed=rng_seed)
    detail = "; ".join(f"{r.name}={r.value:.3g}" for r in results)
    return all(r.passed for r in results), detail, results


class TestCriterion1Stationarity:
    def test_wf_stationarity(self):
        t0 = time.perf_counter()
        ok, detail, _ = run_checks(["stationarity"])
        report("1-wf-stationarity", ok, detail, time.perf_counter() - t0, 10)


class TestCriterion2Normalization:
    def test_transition_density_normalization(self):
        t0 = time.perf_counter()
        ok, detail, results = run_checks(["transition_normalization"])
        worst = max(r.value for r in results)
        report("2-transition-normalization", ok, f"worst |I-1|={worst:.2e}",
               time.perf_counter() - t0, 5)


class TestCriterion3EulerOracle:
    def test_exact_vs_euler(self):
        t0 = time.perf_counter()
        ok, detail, _ = run_checks(["exact_vs_euler"])
        report("3-exact-vs-euler", ok, detail, time.perf_counter() - t0, 120)


class TestCriterion4DpMoments:
    def test_dp_moments(self):
        t0 = time.perf_counter()
        ok, detail, _ = run_checks(["dp_moments"])
        report("4-dp-moments", ok, detail, time.perf_counter() - t0, 30)


class TestCriterion5Acf:
    def test_autocorrelation(self):
        t0 = time.perf_counter()
        ok, detail, _ = run_checks(["acf"])
        report("5-autocorrelation", ok, detail, time.perf_counter() - t0, 120)


class TestCriterion6FullConditionals:
    """Each Gibbs update against its enumeration / quadrature oracle."""

    def test_full_conditionals(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(606)
        failures = []

        # membership frequencies against the exact finite law
        data = TimeGridDataset(times=[0.0], values=(np.array([0.6]),))
        cfg = SamplerConfig(stick=StickConfig.dp(1.0),
                            centering=CenteringMeasure(), iters=1, burn_in=0)
        state = init_chain(data, cfg, rng)
        m = 3
        state.m = m
        state.sticks = np.array([[0.4], [0.5], [0.6]])
        state.atoms = np.array([[0.0, 4.0], [1.0, 4.0], [-0.5, 1.0]])
        state.trans_o = np.zeros((m, 0))
        state.trans_k = np.zeros((m, 0), dtype=np.int64)
        state.trans_d = np.zeros((m, 0), dtype=np.int64)
        eta = cfg.slice_eta
        state.u = np.array([np.exp(-eta * 3.5)])
        w = sticks_to_weights_matrix(state.sticks)[:, 0]
        log_mass = np.log(w) + eta * np.arange(1, m + 1) \
            + gaussian_logpdf(0.6, state.atoms[:, 0], state.atoms[:, 1])
        probs = np.exp(log_mass - logsumexp(log_mass))
        reps = 100_000
        counts = np.zeros(m)
        for _ in range(reps):
            state.s = np.array([0])
            update_membership(state, data, cfg, rng)
            counts[state.s[0]] += 1
        freq = counts / reps
        dev = np.abs(freq - probs) / np.sqrt(probs * (1 - probs) / reps)
        if not np.all(dev < 3.0):
            failures.append(f"membership max z={dev.max():.2f}")

        # k conditional at d=1: exact two-point law
        data2 = TimeGridDataset(times=[0.0, 1.0],
                                values=(np.array([0.0]), np.array([0.0])))
        cfg2 = SamplerConfig(stick=StickConfig.dp(1.0),
                             centering=CenteringMeasure(), iters=1,
                             burn_in=0, fix_theta=1.5, fix_c=1.0,
                             fixed_truncation=1)
        state2 = init_chain(data2, cfg2, rng)
        v0, v1 = 0.3, 0.8
        state2.sticks = np.array([[v0, v1]])
        from scipy.special import gammaln
        a, b = 1.0, 1.5
        ratio = np.log(v1) + np.log(v0) - np.log1p(-v1) - np.log1p(-v0)
        log_m = np.array([-gammaln(a) - gammaln(b + 1.0),
                          -gammaln(a + 1.0) - gammaln(b) + ratio])
        p1 = np.exp(log_m[1] - logsumexp(log_m))
        hits = 0
        reps2 = 100_000
        for _ in range(reps2):
            state2.trans_d = np.array([[1]], dtype=np.int64)
            update_transition_latents(state2, data2, cfg2, rng)
            hits += int(state2.trans_k[0, 0] == 1)
        z = abs(hits / reps2 - p1) / np.sqrt(p1 * (1 - p1) / reps2)
        if z >= 3.0:
            failures.append(f"k-law z={z:.2f}")

        # d marginal against direct summation (chi-square)
        cfg3 = SamplerConfig(stick=StickConfig.dp(1.0),
                             centering=CenteringMeasure(), iters=1,
                             burn_in=0, fix_theta=1.0, fix_c=1.0,
                             fixed_truncation=1)
        state3 = init_chain(data2, cfg3, rng)
        v0b, v1b = 0.35, 0.7
        state3.sticks = np.array([[v0b, v1b]])
        draws = np.empty(150_000, dtype=np.int64)
        for i in range(len(draws)):
            update_transition_latents(state3, data2, cfg3, rng)
            draws[i] = state3.trans_d[0, 0]
        draws = draws[::8]
        p = wf.WFParams(1.0, 1.0, 1.0)
        dmax = 60
        mass = np.array([
            wf.nb_weight(d, 1.0, p)
            * transition_mixture_component(v1b, d, v0b, p)
            for d in range(dmax)])
        mass /= mass.sum()
        obs_counts = np.bincount(draws, minlength=dmax)[:dmax]
        exp_counts = mass * obs_counts.sum()
        cut = np.nonzero(exp_counts >= 5)[0][-1]
        obs_p = np.append(obs_counts[:cut], obs_counts[cut:].sum())
        exp_p = np.append(exp_counts[:cut], exp_counts[cut:].sum())
        chi2 = float(((obs_p - exp_p) ** 2 / exp_p).sum())
        pval = 1.0 - stats.chi2.cdf(chi2, len(obs_p) - 1)
        if pval <= 0.001:
            failures.append(f"d-marginal chi2 p={pval:.4f}")

        # atom conditional against 2-D quadrature at five points
        ys = np.array([1.0, 1.4, 0.7])
        cm = CenteringMeasure()
        post = centering_posterior(cm, ys)

        def unnorm_log(mean_, prec_):
            return centering_logpdf(cm, mean_, prec_) + float(
                gaussian_logpdf(ys, mean_, prec_).sum())

        mg, mw = np.polynomial.legendre.leggauss(240)
        mgrid, mwt = 1.05 + 1.5 * mg, 1.5 * mw
        pg, pw = np.polynomial.legendre.leggauss(240)
        pgrid, pwt = 15.0 + 14.999999 * pg, 14.999999 * pw
        vals = np.exp([[unnorm_log(m_, p_) for p_ in pgrid] for m_ in mgrid])
        norm = mwt @ vals @ pwt
        for mean_, prec_ in [(1.0, 9.0), (1.2, 11.0), (0.9, 8.0),
                             (1.05, 10.5), (1.3, 12.0)]:
            exact = np.exp(centering_logpdf(post, mean_, prec_))
            quad = np.exp(unnorm_log(mean_, prec_)) / norm
            if abs(exact - quad) > 1e-6 * max(1.0, exact):
                failures.append(
                    f"atom conditional at ({mean_},{prec_}): "
                    f"{exact:.8g} vs {quad:.8g}")

        # stationary (sticks, latents) joint on a 50 x 50 grid
        tv = stick_joint_tv(np.random.default_rng(42), replicates=2000,
                            sweeps=600, burn=100, grid_n=50)
        if tv >= 0.02:
            failures.append(f"stick joint TV={tv:.4f}")

        # hyperparameter move: prior recovery with no components
        data4 = TimeGridDataset(times=[0.0, 1.0],
                                values=(np.array([0.0]), np.array([0.0])))
        prior = GammaPrior(2.0, 0.5)
        cfg4 = SamplerConfig(stick=StickConfig.dp(1.0),
                             centering=CenteringMeasure(), iters=1,
                             burn_in=10 ** 9, theta_prior=prior,
                             c_prior=prior)
        state4 = init_chain(data4, cfg4, rng)
        state4.m = 0
        state4.sticks = np.zeros((0, 2))
        state4.trans_o = np.zeros((0, 1))
        state4.trans_k = np.zeros((0, 1), dtype=np.int64)
        state4.trans_d = np.zeros((0, 1), dtype=np.int64)
        state4.atoms = np.zeros((0, 2))
        theta_draws = np.empty(500_000)
        for i in range(len(theta_draws)):
            update_hyperparams(state4, data4, cfg4, rng)
            theta_draws[i] = state4.theta
        thinned = theta_draws[::5]
        ks = stats.kstest(thinned, stats.gamma(2.0, scale=2.0).cdf)
        if ks.pvalue <= 0.001:
            failures.append(f"prior recovery KS p={ks.pvalue:.4f}")

        # hyperparameter move against the grid-normalised conditional
        data5 = TimeGridDataset(
            times=[0.0, 0.6, 1.2],
            values=(np.array([0.0]), np.array([0.0]), np.array([0.0])))
        cfg5 = SamplerConfig(stick=StickConfig.dp(1.0),
                             centering=CenteringMeasure(), iters=1,
                             burn_in=10 ** 9, fixed_truncation=1,
                             fix_c=1.0, theta_prior=GammaPrior(2.0, 0.5))
        state5 = init_chain(data5, cfg5, rng)
        state5.sticks = np.array([[0.3, 0.5, 0.4]])
        state5.trans_k = np.array([[1, 2]], dtype=np.int64)
        state5.trans_d = np.array([[3, 4]], dtype=np.int64)
        th_draws = np.empty(120_000)
        for i in range(len(th_draws)):
            update_hyperparams(state5, data5, cfg5, rng)
            th_draws[i] = state5.theta
        th_draws = th_draws[2000::4]
        grid = np.linspace(1e-3, 25.0, 3000)
        logpost = np.array([
            cfg5.theta_prior.logpdf(t) + reference_stick_likelihood(
                state5.sticks, state5.trans_k, state5.trans_d, data5.gaps,
                *cfg5.stick.params(state5.m, t), state5.c) for t in grid])
        dens = np.exp(logpost - logpost.max())
        dens /= np.trapezoid(dens, grid)
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        bins = np.quantile(th_draws, np.linspace(0, 1, 21))
        bins = np.clip(bins, 0, 25.0)
        obs, _ = np.histogram(th_draws, bins=bins)
        exp_p = np.diff(np.interp(bins, grid, cdf, left=0.0, right=1.0))
        tv_theta = 0.5 * np.abs(obs / obs.sum()
                                - exp_p / exp_p.sum()).sum()
        if tv_theta >= 0.03:
            failures.append(f"theta conditional TV={tv_theta:.4f}")

        detail = "; ".join(failures) if failures else \
            f"7 oracles ok (joint TV={tv:.4f}, theta TV={tv_theta:.4f})"
        report("6-full-conditionals", not failures, detail,
               time.perf_counter() - t0, 300)


class TestCriterion7Geweke:
    def test_joint_distribution(self):
        t0 = time.perf_counter()
        rows = run_geweke(np.random.default_rng(909), sweeps=100_000,
                          burn=5_000, m_pin=8)
        worst = max(abs(r["z"]) for r in rows)
        detail = ", ".join(f"{r['name']}: z={r['z']:+.2f}" for r in rows)
        report("7-geweke", worst < 3.0, detail, time.perf_counter() - t0, 600)


class TestCriterion8ToyRecovery:
    def test_toy_fit(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        data = mixture.simulate_toy(50, 5, 5.0, rng)
        cfg = SamplerConfig(stick=StickConfig.dp(1.0),
                            centering=CenteringMeasure(),
                            iters=4000, burn_in=2000, thin=4, seed=3)
        draws = run_chain(data, cfg)
        assert draws.n_draws == 1000
        grid = np.linspace(-3.0, 5.5, 101)
        surface = estimation.summarize(draws, grid)
        rep = estimation.coverage_report(surface, mixture.toy_mean,
                                         mixture.toy_density)
        truth = mixture.toy_mean(surface.times)
        rmse = float(np.sqrt(np.mean((surface.mean_median - truth) ** 2)))
        ok = rep.mean_coverage >= 0.80 and rmse < 0.25
        report("8-toy-recovery", ok,
               f"coverage={rep.mean_coverage:.2f} (need >=0.80), "
               f"rmse={rmse:.3f} (need <0.25)",
               time.perf_counter() - t0, 1800)


class TestCriterion9Determinism:
    def test_bitwise_identical_archives(self, tmp_path):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4)
        data = mixture.simulate_toy(10, 2, 2.0, rng)
        cfg = SamplerConfig(stick=StickConfig.dp(1.0),
                            centering=CenteringMeasure(),
                            iters=60, burn_in=20, thin=3, seed=99)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        run_chain(data, cfg).save(p1)
        run_chain(data, cfg).save(p2)
        same = p1.read_bytes() == p2.read_bytes()
        report("9-determinism", same,
               "bitwise identical draw archives", time.perf_counter() - t0,
               60)
