"""Self-validation battery of analytic identities.

Every check pits a sampled or series-evaluated quantity against an
independent closed form (stationary laws, moment identities, the
autocorrelation formula, quadrature of the transition density) and
reports a machine-readable pass/fail record. The CLI exposes the battery
as `diffmix validate`; the acceptance tests reuse the same functions at
their full sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import measure, wf
from .measure import StickConfig
from .wf import WFParams


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str  # "<" or ">"
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        return (f"check={self.name} pass={str(self.passed).lower()} "
                f"value={self.value:.6g} comparison={self.comparison} "
                f"threshold={self.threshold:.6g} seconds={self.seconds:.2f}"
                + (f" detail={self.detail}" if self.detail else ""))


def _result(name, value, threshold, comparison, detail=""):
    """A check passes when value < threshold or value > threshold,
    strictly, as comparison says."""
    value, threshold = float(value), float(threshold)
    passed = value < threshold if comparison == "<" else value > threshold
    return CheckResult(name=name, passed=passed, value=value,
                       threshold=threshold, comparison=comparison,
                       detail=detail)


def _gauss_legendre_unit(n_nodes: int):
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def check_series_normalization(rng) -> list[CheckResult]:
    """Sum of the Negative-Binomial series weights equals one.

    Terms are summed up to the index where the tail drops below 1e-12.
    """
    out = []
    for (a, b, c, t) in [(1.0, 4.0, 2.0, 0.5), (2.0, 3.0, 1.0, 0.1),
                         (1.0, 1.5, 0.7, 3.0)]:
        p = WFParams(a, b, c)
        n_terms = wf.nb_truncation_index(t, p, 1e-12)
        total = wf.nb_weight(np.arange(n_terms + 1), t, p).sum()
        err = abs(total - 1.0)
        out.append(_result("series_normalization", err, 1e-10, "<",
                           f"a={a},b={b},c={c},t={t}"))
    return out


def check_transition_normalization(rng) -> list[CheckResult]:
    """Quadrature of the transition densities over (0, 1) equals one.

    Runs both the exact density and the series kernel the sampler
    augments, each truncated at tail mass 1e-9; each is a Beta mixture,
    so Gauss-Legendre with enough nodes integrates it essentially exactly.
    """
    p, tol = WFParams(1.0, 4.0, 2.0), 1e-9
    out = []
    for t in (0.05, 0.5, 5.0):
        support = max(len(wf.lineage_weights(t, p, tol=tol)),
                      wf.nb_truncation_index(t, p, tol))
        x, w = _gauss_legendre_unit(max(256, min(2048, support + 64)))
        for v0 in (0.1, 0.5, 0.9):
            dens = wf.transition_density(x, v0, t, p, tol=tol)
            err = abs(float(w @ dens) - 1.0)
            out.append(_result("transition_normalization", err, 1e-6, "<",
                               f"v0={v0},t={t}"))
            dens_series = wf.series_transition_density(x, v0, t, p, tol=tol)
            err_s = abs(float(w @ dens_series) - 1.0)
            out.append(_result("series_kernel_normalization", err_s, 1e-6,
                               "<", f"v0={v0},t={t}"))
    return out


def check_stationarity(rng, n: int = 100_000) -> list[CheckResult]:
    """Transition draws from a Beta(a, b) start stay Beta(a, b)."""
    from scipy import stats

    p = WFParams(1.0, 4.0, 2.0)
    out = []
    for t in (0.1, 1.0):
        start = rng.beta(p.a, p.b, size=n)
        moved = wf.sample_transition(start, t, p, rng)
        reference = rng.beta(p.a, p.b, size=n)
        stat, pval = stats.ks_2samp(moved, reference)
        out.append(_result("wf_stationarity_ks", pval, 0.001, ">",
                           f"t={t},ks={stat:.4g}"))
    return out


def check_chapman_kolmogorov(rng, n: int = 100_000) -> list[CheckResult]:
    """Two short exact steps match the one-step density at the summed time."""
    p = WFParams(1.0, 4.0, 2.0)
    v0, t1, t2 = 0.3, 0.3, 0.2
    mid = wf.sample_transition(np.full(n, v0), t1, p, rng)
    end = wf.sample_transition(mid, t2, p, rng)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    dens = wf.transition_density(grid, v0, t1 + t2, p, tol=1e-12)
    cdf_grid = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf_grid /= cdf_grid[-1]
    emp = np.interp(np.sort(end), grid, cdf_grid)
    ks = float(np.max(np.abs(emp - (np.arange(1, n + 1) / n))))
    return [_result("chapman_kolmogorov_ks", ks, 0.01, "<",
                    f"t1={t1},t2={t2}")]


def check_exact_vs_euler(rng, n: int = 100_000,
                         step: float = 1e-4) -> list[CheckResult]:
    """Exact transition draws agree with Euler-Maruyama endpoints."""
    from scipy import stats

    p = WFParams(1.0, 4.0, 2.0)
    v0, t = 0.2, 0.1
    exact = wf.sample_transition(np.full(n, v0), t, p, rng)
    euler = wf.euler_endpoints(v0, t, step, p, rng, size=n)
    ks, _ = stats.ks_2samp(exact, euler)
    return [_result("exact_vs_euler_ks", ks, 0.01, "<",
                    f"t={t},step={step}")]


def _set_mass(sticks, inside):
    """P(A) per column of an (M, reps) stick matrix, A marked by inside."""
    return (measure.sticks_to_weights_matrix(sticks) * inside).sum(axis=0)


def check_dp_moments(rng, reps: int = 10_000) -> list[CheckResult]:
    """Stationary measure of a half-mass set has the Dirichlet moments.

    With concentration theta and G(A) = 1/2 the mean is 1/2 and the
    variance G(A)(1 - G(A)) / (theta + 1) = 1/8 for theta = 1.
    """
    theta = 1.0
    cfg = StickConfig.dp(theta)
    sticks = measure.sample_sticks(cfg, 1e-4, rng, reps)
    vals = _set_mass(sticks, rng.uniform(size=sticks.shape) < 0.5)
    mean_se = vals.std(ddof=1) / np.sqrt(reps)
    mean_err = abs(vals.mean() - 0.5)
    s2 = vals.var(ddof=1)
    m4 = np.mean((vals - vals.mean()) ** 4)
    var_se = np.sqrt(max(m4 - s2 ** 2, 0.0) / reps)
    var_err = abs(s2 - 0.125)
    return [
        _result("dp_moment_mean", mean_err, 3 * mean_se, "<",
                f"mean={vals.mean():.5f}"),
        _result("dp_moment_var", var_err, 3 * var_se, "<",
                f"var={s2:.5f}"),
    ]


def check_acf(rng, reps: int = 10_000) -> list[CheckResult]:
    """Monte Carlo autocorrelation of P_t(A) matches the closed form.

    Atoms are held fixed along each path so only the weights decorrelate;
    the standard time scale c = theta / 2 is used. Standard errors come
    from a nonparametric bootstrap over replicates.
    """
    theta = 1.0
    cfg = StickConfig.dp(theta)  # c defaults to theta / 2
    lags = [0.0, 0.5, 1.0, 2.0, 20.0]
    sticks = measure.sample_sticks(cfg, 1e-4, rng, reps)
    inside = rng.uniform(size=sticks.shape) < 0.5
    vals = np.empty((reps, len(lags)))
    prev = 0.0
    for col, s in enumerate(lags):
        if s > prev:
            sticks = measure.move_sticks(sticks, cfg, s - prev, rng)
            prev = s
        vals[:, col] = _set_mass(sticks, inside)
    # one resample row at a time: the same draws as one (boot, reps)
    # index matrix, without holding it
    boot_r = np.empty((200, len(lags) - 1))  # lags[1:]
    for row in boot_r:
        rows = rng.integers(0, reps, size=reps)
        lag0 = vals[rows, 0]
        row[:] = [np.corrcoef(lag0, vals[rows, col])[0, 1]
                  for col in range(1, len(lags))]
    out = []
    for col, s in enumerate(lags):
        target = measure.theoretical_acf(theta, s)
        if s == 0.0:
            err = abs(target - 1.0)
            out.append(_result("acf_lag0_identity", err, 1e-12, "<"))
            continue
        r_hat = float(np.corrcoef(vals[:, 0], vals[:, col])[0, 1])
        se = float(boot_r[:, col - 1].std(ddof=1))
        err = abs(r_hat - target)
        out.append(_result(f"acf_lag_{s:g}", err, 3 * se, "<",
                           f"mc={r_hat:.4f},closed={target:.4f}"))
        if s == lags[-1]:
            floor_val = (1.0 + theta) / (1.0 + 2.0 * theta)
            out.append(_result("acf_floor", r_hat, floor_val - 3 * se, ">",
                               f"floor={floor_val:.4f}"))
    return out


def check_mean_reversion(rng, n: int = 200_000) -> list[CheckResult]:
    """Regression of log |E[v(t) | v0] - a/(a+b)| on t recovers the rate."""
    p = WFParams(2.0, 3.0, 1.5)
    rate = wf.mean_reversion_rate(p)
    v0 = 0.95
    ts = np.linspace(0.1, 1.2, 8)
    gaps = np.empty(len(ts))
    target = wf.stationary_mean(p)
    for i, t in enumerate(ts):
        draws = wf.sample_transition(np.full(n, v0), float(t), p, rng)
        gaps[i] = abs(draws.mean() - target)
    slope = np.polyfit(ts, np.log(gaps), 1)[0]
    rel = abs(-slope - rate) / rate
    return [_result("mean_reversion_rate", rel, 0.05, "<",
                    f"fitted={-slope:.4f},rate={rate:.4f}")]


def check_deficit(rng, reps: int = 100_000) -> list[CheckResult]:
    """Expected leftover mass after M sticks is (theta/(1+theta))^M."""
    theta, m = 1.0, 8
    v = rng.beta(1.0, theta, size=(reps, m))
    deficit = np.prod(1.0 - v, axis=1)
    target = (theta / (1.0 + theta)) ** m
    se = deficit.std(ddof=1) / np.sqrt(reps)
    err = abs(deficit.mean() - target)
    return [_result("stick_deficit_mean", err, 3 * se, "<",
                    f"mc={deficit.mean():.6f},closed={target:.6f}")]


_KS_BLOCK = 1 << 16  # sorted values per CDF evaluation in _ks_statistic


def _ks_statistic(sorted_x, cdf) -> float:
    """One-sample two-sided KS statistic of sorted values against cdf.

    Folded over _KS_BLOCK values at a time with scipy's D+ and D-
    arithmetic (`_compute_d`), so it equals
    `stats.kstest(x, cdf).statistic` bit for bit without the sorted
    copies and the full-length CDF and distance arrays.
    """
    n = len(sorted_x)
    d = -np.inf
    for first in range(0, n, _KS_BLOCK):
        f = cdf(sorted_x[first:first + _KS_BLOCK])
        ranks = np.arange(float(first), float(first + len(f) + 1)) / n
        d = max(d, np.max(ranks[1:] - f), np.max(f - ranks[:-1]))
    return float(d)


def check_euler_ergodic(rng, steps: int = 1_000_000) -> list[CheckResult]:
    """Long-run Euler occupancy matches the Beta(1, 4) invariant law."""
    from scipy import stats

    p = WFParams.standard(1.0, 4.0)
    path = wf.euler_path(0.5, steps * 0.01, 0.01, p, rng)
    tail = path[len(path) // 20:]  # after burn-in; the check owns the path
    tail.sort()
    ks = _ks_statistic(tail, stats.beta(p.a, p.b).cdf)
    return [_result("euler_ergodic_ks", ks, 0.02, "<",
                    f"steps={steps}")]


FULL_CHECKS = {
    "series_normalization": check_series_normalization,
    "transition_normalization": check_transition_normalization,
    "stationarity": check_stationarity,
    "chapman_kolmogorov": check_chapman_kolmogorov,
    "exact_vs_euler": check_exact_vs_euler,
    "dp_moments": check_dp_moments,
    "acf": check_acf,
    "mean_reversion": check_mean_reversion,
    "deficit": check_deficit,
    "euler_ergodic": check_euler_ergodic,
}

QUICK_CHECKS = ("series_normalization", "transition_normalization",
                "dp_moments", "deficit", "mean_reversion")


def run_validation(names=None, seed: int = 0) -> list[CheckResult]:
    """Run the battery (or a named subset) and return all results."""
    if names is None:
        names = tuple(FULL_CHECKS)
    if not names:
        raise ValueError("no check named; available: "
                         + ", ".join(FULL_CHECKS))
    unknown = [n for n in names if n not in FULL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}; "
                         f"available: {', '.join(FULL_CHECKS)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    results = []
    for name in names:
        start = time.perf_counter()
        partial = FULL_CHECKS[name](rng)
        elapsed = time.perf_counter() - start
        for res in partial:
            results.append(replace(res, seconds=elapsed / len(partial)))
    return results
