"""Shared simulation oracles used by the unit and acceptance suites."""

import csv
import json
import math

import numpy as np
from scipy import stats
from scipy.special import betaln, gammaln

from diffmix import gibbs, measure, store, wf
from diffmix.data import TimeGridDataset
from diffmix.estimation import (DensitySurface, effective_sample_size,
                                histogram_mode)
from diffmix.errors import NumericalError
from diffmix.gibbs import (GammaPrior, SamplerConfig, gibbs_sweep, init_chain,
                           update_stick_values, update_transition_latents)
from diffmix.measure import (OPEN_UNIT, StickConfig, stick_runs,
                             sticks_to_weights_matrix)
from diffmix.mixture import (LOG_2PI, CenteringMeasure, gaussian_logpdf,
                             renormalised_mixture)
from diffmix.store import MH_TARGET_ACCEPT
from diffmix.validate import _result, _set_mass


def pair_mixture_density(log_weights, v0, v1, p):
    """sum_m w_m D(v1 | m, v0) with one exponential per (m, k) pair and node.

    The reference for wf._mixture_density: every term
    w_m Bin(k | m, v0) Beta(v1 | a + k, b + m - k) is formed in log space
    on its own and summed in double precision. Indices whose log weight
    is -inf are skipped; v1 is a 1-d array.
    """
    m_sizes = np.flatnonzero(np.isfinite(log_weights))
    pair_m = np.repeat(m_sizes, m_sizes + 1).astype(float)
    pair_k = np.concatenate([np.arange(m + 1) for m in m_sizes]).astype(float)
    pair_logw = np.repeat(log_weights[m_sizes], m_sizes + 1)
    if v0 == 0.0:
        log_bin = np.where(pair_k == 0, 0.0, -np.inf)
    elif v0 == 1.0:
        log_bin = np.where(pair_k == pair_m, 0.0, -np.inf)
    else:
        log_bin = (gammaln(pair_m + 1.0) - gammaln(pair_k + 1.0)
                   - gammaln(pair_m - pair_k + 1.0)
                   + pair_k * np.log(v0) + (pair_m - pair_k) * np.log1p(-v0))
    a1 = p.a + pair_k
    b1 = p.b + pair_m - pair_k
    log_w = pair_logw + log_bin - betaln(a1, b1)
    log_v1, log_1mv1 = np.log(v1), np.log1p(-v1)
    dens = np.zeros(len(v1))
    chunk = max(1, (1 << 22) // len(v1))
    for lo in range(0, len(pair_m), chunk):
        sl = slice(lo, lo + chunk)
        dens += np.exp(log_w[sl][:, None]
                       + (a1[sl] - 1.0)[:, None] * log_v1[None, :]
                       + (b1[sl] - 1.0)[:, None] * log_1mv1[None, :]
                       ).sum(axis=0)
    return dens


def transition_mixture_component(v1, m: int, v0: float, p):
    """Beta-Binomial mixture component D(v1 | m, v0).

    A density in v1 for every (m, v0): the k-th term weights
    Beta(v1 | a + k, b + m - k) by Bin(k | m, v0). The per-component
    reference of the latent full-conditional tests, evaluated by
    wf._mixture_density with all weight on index m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    v1 = wf._check_transition_args(v1, v0)
    log_weights = np.full(m + 1, -np.inf)
    log_weights[m] = 0.0
    return wf._mixture_density(log_weights, v0, v1, p)


def centering_posterior(cm: CenteringMeasure, ys) -> CenteringMeasure:
    """Conjugate normal-gamma update of cm given observations assigned to
    one atom; with no observations cm itself.

    The per-atom reference for gibbs.update_locations, which makes the same
    update for every atom at once.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    n = len(ys)
    total = ys.sum()
    total_sq = (ys ** 2).sum()
    scale_n = cm.precision_scale + n
    mean_n = (cm.precision_scale * cm.mean0 + total) / scale_n
    rate_n = cm.rate + 0.5 * (
        total_sq + cm.precision_scale * cm.mean0 ** 2 - scale_n * mean_n ** 2
    )
    return CenteringMeasure(mean0=mean_n, precision_scale=scale_n,
                            shape=cm.shape + 0.5 * n,
                            rate=max(rate_n, np.finfo(float).tiny))


def centering_logpdf(cm: CenteringMeasure, mean, precision):
    """Joint log density of the normal-gamma law cm at (mean, precision).

    The per-atom reference of the atom full-conditional checks, which
    compare the normalised prior-times-kernel product against it.
    """
    mean = np.asarray(mean, dtype=float)
    prec = np.asarray(precision, dtype=float)
    lam = cm.precision_scale * prec
    log_norm = 0.5 * (np.log(lam) - LOG_2PI) \
        - 0.5 * lam * (mean - cm.mean0) ** 2
    log_gamma = cm.shape * np.log(cm.rate) - gammaln(cm.shape) \
        + (cm.shape - 1.0) * np.log(prec) - cm.rate * prec
    out = log_norm + log_gamma
    return float(out) if out.ndim == 0 else out


def acf_series_constants(theta: float) -> tuple[float, float, float]:
    """Constants (c1, c2, rate) of the weight-overlap geometric series.

    E[v(t) v(t+s)] for one Beta(1, theta) stick equals
    c1 + c2 e^{-rate s} with c1 = 1/(1+theta)^2,
    c2 = theta / ((1+theta)^2 (2+theta)) and rate = (1+theta)/2.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    c1 = 1.0 / (1.0 + theta) ** 2
    c2 = theta / ((1.0 + theta) ** 2 * (2.0 + theta))
    return c1, c2, (1.0 + theta) / 2.0


def expected_weight_overlap(theta: float, s):
    """E[sum_j w_j(t) w_j(t+s)] at stationarity, via the geometric series.

    Summing E[w_j(t) w_j(t+s)] over sticks gives
    (c1 + c2 E) / (1 - c1 theta^2 - c2 E) with E = e^{-rate s}. The
    series form that measure.theoretical_acf's closed form is checked
    against.
    """
    c1, c2, rate = acf_series_constants(theta)
    e = np.exp(-rate * np.asarray(s, dtype=float))
    out = (c1 + c2 * e) / (1.0 - c1 * theta ** 2 - c2 * e)
    return float(out) if out.ndim == 0 else out


def matrix_bootstrap_acf(rng, reps: int = 10_000):
    """validate.check_acf with its bootstrap drawn as one (200, reps)
    index matrix: the reference for the check's row-at-a-time draw,
    whose results and generator state after must be the same."""
    theta = 1.0
    cfg = StickConfig.dp(theta)
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
    out = []
    boot = 200
    idx = rng.integers(0, reps, size=(boot, reps))
    for col, s in enumerate(lags):
        target = measure.theoretical_acf(theta, s)
        if s == 0.0:
            err = abs(target - 1.0)
            out.append(_result("acf_lag0_identity", err, 1e-12, "<"))
            continue
        r_hat = float(np.corrcoef(vals[:, 0], vals[:, col])[0, 1])
        boot_r = np.array([
            np.corrcoef(vals[rows, 0], vals[rows, col])[0, 1]
            for rows in idx
        ])
        se = float(boot_r.std(ddof=1))
        err = abs(r_hat - target)
        out.append(_result(f"acf_lag_{s:g}", err, 3 * se, "<",
                           f"mc={r_hat:.4f},closed={target:.4f}"))
        if s == lags[-1]:
            floor_val = (1.0 + theta) / (1.0 + 2.0 * theta)
            out.append(_result("acf_floor", r_hat, floor_val - 3 * se, ">",
                               f"floor={floor_val:.4f}"))
    return out


def lineage_table_loggamma(theta, ts, dps):
    """Lineage-count weights at dps digits, each alternating term from its
    own log-gammas.

    The reference for wf._lineage_table's rows, which step from term to
    term by their ratio and start from a decimal product carried from row
    to row. A row stops at its first falling term below 10^(8 - dps); the
    table stops by wf._lineage_table's rule.
    """
    import mpmath as mp

    with mp.workdps(dps):
        th, tt = mp.mpf(theta), mp.mpf(ts)
        cutoff = mp.mpf(10) ** (-(dps - 8))

        def row(m):
            base = mp.loggamma(m + 1) + mp.loggamma(th + m)
            q_m, i, prev_mag = mp.mpf(0), m, None
            while True:
                mag = mp.e ** (-i * (i + th - 1) * tt / 2
                               + mp.log(th + 2 * i - 1)
                               + mp.loggamma(th + m + i - 1)
                               - mp.loggamma(i - m + 1) - base)
                q_m += mag if (i - m) % 2 == 0 else -mag
                if prev_mag is not None and mag < prev_mag and mag < cutoff:
                    return q_m
                prev_mag = mag
                i += 1

        weights, total, negligible, m = [], 0, 0, 0
        while True:
            q_m = row(m)
            weights.append(float(q_m))
            total += q_m
            negligible = negligible + 1 if abs(q_m) < 1e-14 else 0
            if (1 - total < 1e-12 and abs(q_m) < 1e-13) \
                    or (negligible >= 4 and total > 0.5):
                return np.array(weights)
            m += 1


def stick_joint_tv(rng, replicates=300, sweeps=800, burn=100, grid_n=20,
                   theta=4.0, c=1.5, tau=1.0):
    """Total variation between the (latents, sticks) chain's pooled joint
    of (v(t1), v(t2)) and the analytic pi(v1) x series-kernel(v2 | v1).

    Sticks are conditionally independent given the latents, so rows
    1..replicates of a pinned-truncation state act as parallel data-free
    replicate chains; row 0 absorbs the two pinned observations.
    """
    data = TimeGridDataset(times=[0.0, tau],
                           values=(np.array([0.0]), np.array([0.0])))
    cfg = SamplerConfig(
        stick=StickConfig.dp(theta), centering=CenteringMeasure(),
        iters=1, burn_in=0, fix_theta=theta, fix_c=c,
        fixed_truncation=replicates + 1, m_cap=replicates + 2)
    state = init_chain(data, cfg, rng)
    state.s = np.zeros_like(state.s)
    counts = np.zeros((grid_n, grid_n))
    for sweep in range(sweeps):
        update_transition_latents(state, data, cfg, rng)
        update_stick_values(state, data, cfg, rng)
        if sweep >= burn:
            i = np.clip((state.sticks[1:, 0] * grid_n).astype(int), 0,
                        grid_n - 1)
            j = np.clip((state.sticks[1:, 1] * grid_n).astype(int), 0,
                        grid_n - 1)
            np.add.at(counts, (i, j), 1.0)
    emp = counts / counts.sum()

    p = wf.WFParams(1.0, theta, c)
    sub = 4
    pts = (np.arange(grid_n * sub) + 0.5) / (grid_n * sub)
    prior = stats.beta.pdf(pts, p.a, p.b)
    dens = np.array([
        wf.series_transition_density(pts, float(v1), tau, p, tol=1e-8)
        for v1 in pts])
    joint = prior[:, None] * dens
    cell = joint.reshape(grid_n, sub, grid_n, sub).mean(axis=(1, 3)) \
        / grid_n ** 2
    cell /= cell.sum()
    return float(0.5 * np.abs(emp - cell).sum())


def reference_categorical_rows(log_mass, valid, u):
    """Inverse-CDF draw per row from masked unnormalised log masses, one
    uniform u per row; rows whose valid entries all underflow to zero mass
    come back as -1.

    The bitwise reference for gibbs._categorical, which takes the
    transposed (support x rows) layout with each row's valid entries a
    prefix of its column, and adds the same values in the same order.
    """
    masked = np.where(valid, log_mass, -np.inf)
    mx = masked.max(axis=1)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    p = np.exp(masked - safe[:, None])
    csum = np.cumsum(p, axis=1)
    total = csum[:, -1]
    target = total * (1.0 - u)
    idx = np.argmax(csum >= target[:, None], axis=1)
    idx[total <= 0.0] = -1
    return idx


def reference_membership(state, data, cfg, rng):
    """gibbs.update_membership in the (observations x labels) layout,
    drawn by reference_categorical_rows, without the no-mass check.
    Mutates state the same way."""
    y, tidx = data.flat
    eta = cfg.slice_eta
    log_w = np.log(sticks_to_weights_matrix(state.sticks))
    log_kernel = gaussian_logpdf(y[:, None], state.atoms[None, :, 0],
                                 state.atoms[None, :, 1])
    labels = np.arange(1, state.m + 1, dtype=float)
    log_mass = log_w[:, tidx].T + eta * labels[None, :] + log_kernel
    bounds = np.minimum(store.slice_bounds(state.u, eta), state.m)
    state.s = reference_categorical_rows(
        log_mass, labels[None, :] <= bounds[:, None],
        rng.uniform(size=len(bounds))).astype(np.int64)


def guarded_label_swaps(state, data, cfg, rng):
    """One pass of adjacent label swaps with every emptiness guard.

    The bitwise reference for gibbs.update_label_swaps, which lists each
    label's observations from one argsort of s in place of the boolean
    masks. Mutates state the same way.
    """
    m = state.m
    if m < 2:
        return
    _, tidx = data.flat
    eta = cfg.slice_eta
    a, b = cfg.stick.params(m, state.theta)
    law_changes = {lo for lo, _, _ in stick_runs(a, b, state.c)[1:]}
    taus = data.gaps
    unif = rng.uniform(size=m - 1)
    for j in range(m - 1):
        at_j = state.s == j
        at_j1 = state.s == j + 1
        if np.any(at_j):
            if np.any(state.u[at_j] >= np.exp(-eta * (j + 2.0))):
                continue
        log_ratio = 0.0
        if np.any(at_j):
            t_up = tidx[at_j]
            log_ratio += float(np.sum(np.log1p(-state.sticks[j + 1, t_up]))) \
                + eta * int(at_j.sum())
        if np.any(at_j1):
            t_down = tidx[at_j1]
            log_ratio += -float(np.sum(np.log1p(-state.sticks[j, t_down]))) \
                - eta * int(at_j1.sum())
        if j + 1 in law_changes:
            for lo, hi in ((j, j + 1), (j + 1, j)):
                pos, other = slice(lo, lo + 1), slice(hi, hi + 1)
                log_ratio += reference_stick_likelihood(
                    state.sticks[other], state.trans_k[other],
                    state.trans_d[other], taus, a[pos], b[pos], state.c)
                log_ratio -= reference_stick_likelihood(
                    state.sticks[pos], state.trans_k[pos],
                    state.trans_d[pos], taus, a[pos], b[pos], state.c)
        if np.log(max(unif[j], 1e-300)) < log_ratio:
            for name in store._COMPONENTS:
                arr = getattr(state, name)
                arr[[j, j + 1]] = arr[[j + 1, j]]
            state.s[at_j] = j + 1
            state.s[at_j1] = j


def reference_stick_likelihood(sticks, k, d, taus, a, b, c) -> float:
    """The stick likelihood of gibbs._StickTerms in one expression per
    factor.

    The bitwise reference for the staged terms of gibbs._StickTerms:
    Beta marginal at the first time, Negative-Binomial series weights
    and Beta transition components, every log-gamma evaluated afresh.
    """
    v_first = sticks[:, 0]
    total = float(np.sum(
        (a - 1.0) * np.log(v_first) + (b - 1.0) * np.log1p(-v_first)
        - betaln(a, b)))
    r = (a + b)[:, None]
    A = a[:, None]
    B = b[:, None]
    v1 = sticks[:, 1:]
    series = wf.log_nb_weight(d, r, c * taus)
    comp = (gammaln(r + d) - gammaln(A + k) - gammaln(B + d - k)
            + (A + k - 1.0) * np.log(v1)
            + (B + d - k - 1.0) * np.log1p(-v1))
    return total + float(series.sum() + comp.sum())


def two_block_hyperparams(state, data, cfg, rng):
    """gibbs.update_hyperparams as two blocks, one per move, each with
    its own bookkeeping, the c move starting from the likelihood the
    theta move kept.

    The bitwise reference for the one Metropolis step over a move list:
    the same draws, the same values and the same MHAdaptation fields.
    Mutates state the same way.
    """
    mh = state.mh
    adapt = state.sweep < cfg.burn_in
    terms = gibbs._StickTerms(state.sticks, state.trans_k, state.trans_d,
                              data.gaps)
    at_theta = {}

    def target(theta, c):
        if theta not in at_theta:
            at_theta[theta] = terms.at(*cfg.stick.params(state.m, theta))
        return at_theta[theta](c)

    def step(value, log_step, log_prior, log_lik, lik):
        if lik is None:
            lik = log_lik(value)
        cur = log_prior(value) + lik
        if not np.isfinite(cur):
            raise NumericalError("non-finite hyperparameter log posterior")
        x = math.log(value)
        x_new = x + math.exp(log_step) * rng.standard_normal()
        new = math.exp(x_new)
        lik_new = log_lik(new)
        log_acc = log_prior(new) + lik_new - cur + (x_new - x)
        accept = math.log(max(rng.uniform(), 1e-300)) < log_acc
        return (new, True, lik_new) if accept else (value, False, lik)

    lik = None
    if cfg.fix_theta is None:
        def lik_theta(th):
            return target(th, th / 2.0 if cfg.tie_c_to_theta else state.c)
        new_theta, accepted, lik = step(state.theta, mh.log_step_theta,
                                        cfg.theta_prior.logpdf, lik_theta,
                                        None)
        mh.proposals_theta += 1
        mh.accepts_theta += int(accepted)
        if adapt:
            gain = mh.proposals_theta ** -0.6
            mh.log_step_theta += gain * (int(accepted) - MH_TARGET_ACCEPT)
        state.theta = new_theta
        if cfg.tie_c_to_theta:
            state.c = new_theta / 2.0

    if cfg.fix_c is None and not cfg.tie_c_to_theta:
        new_c, accepted, _ = step(
            state.c, mh.log_step_c, cfg.c_prior.logpdf,
            lambda cv: target(state.theta, cv), lik)
        mh.proposals_c += 1
        mh.accepts_c += int(accepted)
        if adapt:
            gain = mh.proposals_c ** -0.6
            mh.log_step_c += gain * (int(accepted) - MH_TARGET_ACCEPT)
        state.c = new_c


def per_gap_prior_components(cfg, theta, c, count, offset, taus, rng):
    """gibbs._prior_components with one array generator call per gap.

    The bitwise reference for the scalar per-stick draws: the same
    stream, in the same order (d per run, then k, v_next and the slice
    uniforms for every stick), and the same five arrays.
    """
    a, b = (x[offset:] for x in cfg.stick.params(offset + count, theta))
    runs = stick_runs(a, b, c)
    n = len(taus) + 1
    sticks = np.empty((count, n))
    o = np.empty((count, n - 1))
    kk = np.empty((count, n - 1), dtype=np.int64)
    dd = np.empty((count, n - 1), dtype=np.int64)
    sticks[:, 0] = v = np.clip(rng.beta(a, b), *OPEN_UNIT)
    for w, tau in enumerate(taus):
        dd[:, w] = d = np.concatenate([
            wf.sample_nb(float(tau), params, rng, size=hi - lo)
            for lo, hi, params in runs])
        kk[:, w] = k = rng.binomial(d, v)
        sticks[:, w + 1] = v = np.clip(rng.beta(a + k, b + d - k), *OPEN_UNIT)
        o[:, w] = gibbs._sample_slice(d, cfg.trans_slice_eta, rng)
    atoms = cfg.centering.sample(rng, count)
    return sticks, o, kk, dd, atoms


def per_gap_init_chain(data, cfg, rng):
    """gibbs.init_chain with its own per-gap loop: one array generator
    call for k and one _sample_slice per gap.

    The bitwise reference for init's draws through _prior_components:
    the same stream (theta, c, memberships, slices, marginal sticks, then
    d, k and the slice uniforms gap by gap, then the atoms) and the same
    state.
    """
    n = data.n_times
    theta = cfg.fix_theta if cfg.fix_theta is not None \
        else cfg.theta_prior.sample(rng)
    if cfg.tie_c_to_theta:
        c = theta / 2.0
    elif cfg.fix_c is not None:
        c = cfg.fix_c
    else:
        c = cfg.c_prior.sample(rng)

    m = cfg.fixed_truncation or max(10, math.ceil(math.log(data.n_obs)))
    s = rng.integers(0, m, size=data.n_obs)
    u = gibbs._sample_u(s, cfg.slice_eta, rng)
    m = gibbs._truncation(u, cfg, sweep=0, floor=m)

    a, b = cfg.stick.params(m, theta)
    runs = stick_runs(a, b, c)
    sticks = rng.beta(a[:, None], b[:, None], size=(m, n))
    sticks = np.clip(sticks, *OPEN_UNIT)

    o = np.empty((m, n - 1))
    kk = np.empty((m, n - 1), dtype=np.int64)
    dd = np.empty((m, n - 1), dtype=np.int64)
    for w, tau in enumerate(data.gaps.tolist()):
        dd[:, w] = gibbs._prior_index(
            runs, gibbs._series_tables(runs, tau), rng)
        kk[:, w] = rng.binomial(dd[:, w], sticks[:, w])
        o[:, w] = gibbs._sample_slice(dd[:, w], cfg.trans_slice_eta, rng)

    atoms = cfg.centering.sample(rng, m)
    return store.ChainState(m=m, s=s.astype(np.int64), u=u, sticks=sticks,
                            atoms=atoms, trans_o=o, trans_k=kk, trans_d=dd,
                            theta=float(theta), c=float(c),
                            data_digest=data.digest())


def _redraw_observations(state, data, rng):
    """Redraw the one observation per time of data given the state, in
    place: its values and the flat copy the sampler reads (data.digest
    goes stale)."""
    means = state.atoms[state.s, 0]
    sds = 1.0 / np.sqrt(state.atoms[state.s, 1])
    y, _ = data.flat
    y[:] = rng.normal(means, sds)
    for values, v in zip(data.values, y.tolist()):
        values[0] = v


def run_geweke(rng, sweeps=100_000, burn=5_000, marginal_reps=400_000,
               m_pin=8, seed_marginal=777):
    """Joint-distribution check of the sampler against its own model.

    Successive-conditional arm: alternate a full Gibbs sweep with a
    redraw of the observations given the state, on a pinned-truncation
    model (m_pin components, five times, one observation each).
    Marginal-conditional arm: prior draws of (theta, c, stick paths)
    importance-weighted by the retained-mass factor that the pinned
    truncation induces, prod_t (1 - prod_j (1 - v_j(t))).

    Returns a list of dicts with the moment comparisons and z scores.
    """
    times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    cfg = SamplerConfig(
        stick=StickConfig.dp(1.0), centering=CenteringMeasure(),
        iters=1, burn_in=0, seed=0,
        theta_prior=GammaPrior(2.0, 2.0), c_prior=GammaPrior(2.0, 2.0),
        fixed_truncation=m_pin, m_cap=4 * m_pin, slice_eta=0.9)

    data = TimeGridDataset(times=times,
                           values=tuple(np.array([0.0]) for _ in times))
    state = init_chain(data, cfg, rng)
    theta_tr = np.empty(sweeps)
    v11_tr = np.empty(sweeps)
    w11_tr = np.empty(sweeps)
    for i in range(sweeps):
        gibbs_sweep(state, data, cfg, rng)
        _redraw_observations(state, data, rng)
        theta_tr[i] = state.theta
        v11_tr[i] = state.sticks[0, 0]
        w11_tr[i] = state.sticks[0, 0]  # first weight equals first stick
    theta_tr, v11_tr, w11_tr = (t[burn:] for t in (theta_tr, v11_tr, w11_tr))

    rng_m = np.random.default_rng(seed_marginal)
    theta_m = rng_m.gamma(cfg.theta_prior.shape, 1.0 / cfg.theta_prior.rate,
                          size=marginal_reps)
    c_m = rng_m.gamma(cfg.c_prior.shape, 1.0 / cfg.c_prior.rate,
                      size=marginal_reps)
    taus = np.diff(times)
    v = np.empty((marginal_reps, m_pin, len(times)))
    v[:, :, 0] = rng_m.beta(1.0, theta_m[:, None],
                            size=(marginal_reps, m_pin))
    for w_idx, tau in enumerate(taus):
        d = rng_m.negative_binomial(1.0 + theta_m[:, None],
                                    -np.expm1(-c_m[:, None] * tau),
                                    size=(marginal_reps, m_pin))
        k = rng_m.binomial(d, v[:, :, w_idx])
        v[:, :, w_idx + 1] = np.clip(
            rng_m.beta(1.0 + k, theta_m[:, None] + d - k), 1e-12, 1 - 1e-12)
    weight = np.prod(1.0 - np.prod(1.0 - v, axis=1), axis=1)

    def weighted(h):
        mu = float(np.sum(weight * h) / weight.sum())
        se = float(np.sqrt(np.sum(weight ** 2 * (h - mu) ** 2))
                   / weight.sum())
        return mu, se

    def chain(x):
        ess = effective_sample_size(x)
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(ess))

    rows = []
    pairs = [
        ("theta", theta_tr, theta_m),
        ("theta_sq", theta_tr ** 2, theta_m ** 2),
        ("v11", v11_tr, v[:, 0, 0]),
        ("v11_sq", v11_tr ** 2, v[:, 0, 0] ** 2),
        ("w11", w11_tr, v[:, 0, 0]),
        ("w11_sq", w11_tr ** 2, v[:, 0, 0] ** 2),
    ]
    for name, succ, marg in pairs:
        m1, se1 = chain(succ)
        m2, se2 = weighted(marg)
        z = (m1 - m2) / np.sqrt(se1 ** 2 + se2 ** 2)
        rows.append({"name": name, "successive": m1, "marginal": m2,
                     "se": float(np.sqrt(se1 ** 2 + se2 ** 2)),
                     "z": float(z)})
    return rows


def one_shot_summarize(draws, y_grid) -> DensitySurface:
    """estimation.summarize from one (draws x times x grid) density array
    reduced over its draws axis: the bitwise reference of the block-wise
    surface."""
    y_grid = np.asarray(y_grid, dtype=float)
    n = len(draws.times)
    d = draws.n_draws
    dens = np.empty((d, n, len(y_grid)))
    mean_fn = np.empty((d, n))
    for i in range(d):
        mi = int(draws.m[i])
        sticks = draws.sticks[i, :mi, :]
        means = draws.atom_mean[i, :mi]
        precs = draws.atom_prec[i, :mi]
        kernel = np.exp(gaussian_logpdf(y_grid[None, :], means[:, None],
                                        precs[:, None]))
        dens[i] = renormalised_mixture(sticks, kernel)
        mean_fn[i] = renormalised_mixture(sticks, means)
    q = np.quantile(dens, [0.025, 0.5, 0.975], axis=0)
    lo, med, hi = np.quantile(mean_fn, [0.025, 0.5, 0.975], axis=0)
    mode = np.array([histogram_mode(mean_fn[:, i]) for i in range(n)])
    return DensitySurface(
        times=np.asarray(draws.times, dtype=float), y_grid=y_grid,
        dens_q025=q[0], dens_q50=q[1], dens_q975=q[2],
        dens_mean=dens.mean(axis=0),
        mean_mode=mode, mean_mean=mean_fn.mean(axis=0), mean_median=med,
        mean_lo=lo, mean_hi=hi)


def _one_shot_columns(path, header, columns):
    cols = [map(repr, np.asarray(c, dtype=float).ravel().tolist())
            for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))


def one_shot_exports(surface: DensitySurface, prefix) -> list[str]:
    """The density CSV, mean CSV and JSON of a surface, each written from
    whole columns by csv.writer and json.dumps: the byte reference of
    the streaming writers. Returns the three paths."""
    s = surface
    n, g = s.dens_mean.shape
    paths = [f"{prefix}.density.csv", f"{prefix}.mean.csv", f"{prefix}.json"]
    _one_shot_columns(paths[0], ["t", "y", "q025", "q50", "q975", "mean"],
                      [np.repeat(s.times, g), np.tile(s.y_grid, n),
                       s.dens_q025, s.dens_q50, s.dens_q975, s.dens_mean])
    _one_shot_columns(paths[1], ["t", "mode", "mean", "lo", "hi"],
                      [s.times, s.mean_mode, s.mean_mean, s.mean_lo,
                       s.mean_hi])
    payload = {
        "times": s.times.tolist(),
        "y_grid": s.y_grid.tolist(),
        "density": {"q025": s.dens_q025.tolist(), "q50": s.dens_q50.tolist(),
                    "q975": s.dens_q975.tolist(),
                    "mean": s.dens_mean.tolist()},
        "mean_functional": {"mode": s.mean_mode.tolist(),
                            "mean": s.mean_mean.tolist(),
                            "median": s.mean_median.tolist(),
                            "lo": s.mean_lo.tolist(), "hi": s.mean_hi.tolist()},
    }
    with open(paths[2], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
    return paths
