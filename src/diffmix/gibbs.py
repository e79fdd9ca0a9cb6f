"""Slice-augmented Gibbs sampler for the time-dependent mixture.

The posterior over (weights, atoms, hyperparameters) is explored with two
nested slice constructions:

* a per-observation slice u with decreasing label function
  psi(s) = exp(-eta s), which turns the infinite mixture into a finite
  one with random truncation level m = max_i floor(psi_inv(u_i));
* a per-transition triple (o, k, d) that linearises the Wright-Fisher
  transition density: d indexes the Negative-Binomial series term,
  k the Beta-Binomial component and o slices d through
  g(d) = exp(-eta' d).

Given the triples, every stick value has a conjugate Beta full
conditional; atom parameters keep their conjugate normal-gamma update;
memberships and the (o, k, d) triples are finite discrete draws computed
in log space with inverse-CDF sampling; the stick hyperparameters theta
and c move by adaptive random-walk Metropolis on the log scale.

Labels are 1-based in the formulas above; arrays in this module store
0-based memberships, so psi at stored label j is exp(-eta (j + 1)).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import IO, NamedTuple

import numpy as np
from scipy.special import betaln, gammaln

from . import wf
from .data import TimeGridDataset
from .errors import NumericalError, SeriesTruncationError, TruncationCapError
from .measure import (OPEN_UNIT, StickConfig, stick_runs,
                      sticks_to_weights_matrix)
from .mixture import CenteringMeasure, gaussian_logpdf, renormalised_mixture
from .store import (_COMPONENTS, ChainState, PosteriorDraws,
                    _broken_invariant, _snapshot, load_checkpoint,
                    save_checkpoint, slice_bounds)

DEFAULT_M_CAP = 512


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) prior."""

    shape: float
    rate: float

    def __post_init__(self):
        wf._positive("shape", self.shape)
        wf._positive("rate", self.rate)

    def logpdf(self, x: float) -> float:
        if x <= 0:
            return -np.inf
        return (self.shape * math.log(self.rate) - gammaln(self.shape)
                + (self.shape - 1.0) * math.log(x) - self.rate * x)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.shape, 1.0 / self.rate))


@dataclass(frozen=True)
class SamplerConfig:
    """Everything the chain needs besides the data.

    stick fixes the stick family (kind, sigma, explicit pairs); the
    chain carries its own theta and c, so the sampler never reads the
    theta and c stored in the StickConfig. slice_eta and
    trans_slice_eta are the decay rates of the two slice label
    functions and must lie strictly inside (0, 1). iters counts
    post-burn-in sweeps; every thin-th of them is stored.

    fix_theta / fix_c freeze a hyperparameter instead of sampling it.
    tie_c_to_theta enforces c = theta / 2 (the standard time scale), in
    which case c is not sampled separately. fixed_truncation pins the
    truncation level, turning the sampler into a classic fixed-truncation
    slice sampler; mainly useful for validation studies.
    """

    stick: StickConfig
    centering: CenteringMeasure
    slice_eta: float = 0.5
    trans_slice_eta: float = 0.5
    iters: int = 1000
    burn_in: int = 500
    thin: int = 1
    theta_prior: GammaPrior = field(default_factory=lambda: GammaPrior(2.0, 0.5))
    c_prior: GammaPrior = field(default_factory=lambda: GammaPrior(2.0, 0.5))
    fix_theta: float | None = None
    fix_c: float | None = None
    tie_c_to_theta: bool = False
    m_cap: int = DEFAULT_M_CAP
    fixed_truncation: int | None = None
    label_swap_moves: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.slice_eta < 1.0):
            raise ValueError("slice_eta must lie strictly inside (0, 1)")
        if not (0.0 < self.trans_slice_eta < 1.0):
            raise ValueError("trans_slice_eta must lie strictly inside (0, 1)")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.iters < 1 or self.burn_in < 0:
            raise ValueError("need iters >= 1 and burn_in >= 0")
        if self.iters < self.thin:
            raise ValueError(f"iters {self.iters} < thin {self.thin} keeps "
                             "no draw; raise iters or lower thin")
        if self.m_cap < 1:
            raise ValueError("m_cap must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.fixed_truncation is not None and self.fixed_truncation < 1:
            raise ValueError("fixed_truncation must be positive")
        if self.tie_c_to_theta and self.fix_c is not None:
            raise ValueError("fix_c conflicts with tie_c_to_theta")
        for name in ("fix_theta", "fix_c"):
            if getattr(self, name) is not None:
                wf._positive(name, getattr(self, name))
        if self.stick.kind == "gem" and (self.fix_theta is None
                                         or self.tie_c_to_theta):
            raise ValueError(
                "explicit-pair sticks carry no theta to sample or tie c to; "
                "set fix_theta as a placeholder (its value is ignored) and "
                "leave tie_c_to_theta off")

    def digest(self) -> str:
        """Stable hash of the configuration, stored in archives."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _categorical_rows(log_mass: np.ndarray, valid: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row from masked unnormalised log masses, one
    uniform u per row.

    Rows whose valid entries all underflow to zero mass come back as -1.
    """
    masked = np.where(valid, log_mass, -np.inf)
    mx = masked.max(axis=1)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    p = np.exp(masked - safe[:, None])
    csum = np.cumsum(p, axis=1)
    total = csum[:, -1]
    # target in (0, total]: strictly positive so zero-mass prefixes are skipped
    target = total * (1.0 - u)
    idx = np.argmax(csum >= target[:, None], axis=1)
    idx[total <= 0.0] = -1
    return idx


def _sample_u(s, eta, rng) -> np.ndarray:
    """u | s ~ U(0, psi(s + 1)), floored so log(u) stays finite."""
    return np.maximum(rng.uniform(0.0, np.exp(-eta * (s + 1.0))), 1e-300)


def _prior_index(runs, tau: float, tables: dict, rng) -> list[int]:
    """Series index d ~ r_tau per stick, one draw per run of stick_runs;
    tables keeps each run's (size, series table) per distinct gap."""
    if tau not in tables:
        tables[tau] = []
        for lo, hi, p in runs:
            try:
                tables[tau].append((hi - lo, wf._nb_table(tau, p)))
            except SeriesTruncationError as exc:
                raise SeriesTruncationError(
                    f"gap {tau:g} between consecutive observation times "
                    f"gives c tau = {p.c * tau:g} at a + b = {p.a + p.b:g}, "
                    + _unresolved_cause(p.a + p.b, p.c * tau)) from exc
    return [d for size, cum in tables[tau]
            for d in wf._draw_index(cum, rng, size).tolist()]


def _unresolved_cause(r: float, ct: float) -> str:
    """Why the series index at a + b = r and c tau = ct is unresolved, and
    what to change. Its mean is (a + b) / (e^{c tau} - 1): the larger
    factor is named. a + b exceeds 1, so when the series resolves at
    a + b = 1 a lower theta resolves it too."""
    lower_theta = "lower theta (--fix-theta, --theta-prior)"
    raise_c = "raise c (--fix-c, --c-prior)"
    if not wf._nb_size_in_range(r):
        return f"at which log Gamma(a + b) leaves double range; {lower_theta}"
    if r * np.expm1(ct) > 1.0:
        return ("an a + b too large to resolve the series index within its "
                f"cap; {lower_theta}, or {raise_c}")
    return ("too small to resolve the series index within its cap; merge "
            f"near-duplicate times, or {raise_c}"
            + (f", or {lower_theta}" if wf._nb_resolves(1.0, ct) else ""))


def _slice_at(d, eta2, u) -> np.ndarray:
    """o = g(d) max(u, 1e-17) for uniforms u: strictly inside (0, g(d))."""
    return np.exp(-eta2 * d) * np.maximum(u, 1e-17)


def _sample_slice(d, eta2, rng) -> np.ndarray:
    """o | d ~ U(0, g(d)), kept strictly inside the interval."""
    return _slice_at(d, eta2, rng.uniform(size=np.shape(d)))


def _prior_components(cfg: SamplerConfig, theta: float, c: float,
                      count: int, offset: int, taus: np.ndarray,
                      rng: np.random.Generator, sticks=None):
    """Draw `count` fresh components (sticks, latents, atoms) from the prior.

    offset is the number of components already present, so stick labels
    start at offset + 1. Sticks and their transition latents are drawn
    jointly along the path: v(t_1) from its Beta marginal, then at each
    gap d ~ r_tau for every stick (one run of stick_runs at a time),
    k ~ Bin(d, v_prev) for every stick, v_next ~ Beta(a + k, b + d - k)
    for every stick, and the uniforms of the slices o | d. Given sticks
    of shape (count, times), the stick values are taken from them in
    place of both Beta draws, and everything else is drawn as above.

    Growth adds a few sticks at a time and init_chain some tens, so k
    and v are scalar generator calls, one stick at a time: on a handful
    of entries an array call spends ten times as long checking its
    arguments, and it loops over the same sampler, so the stream is the
    one array calls would give.
    """
    a, b = (x[offset:] for x in cfg.stick.params(offset + count, theta))
    runs = stick_runs(a, b, c)
    a_s, b_s = a.tolist(), b.tolist()
    lo, hi = OPEN_UNIT
    given = None if sticks is None else sticks.T.tolist()  # one per time
    v = np.clip(rng.beta(a, b), lo, hi).tolist() if given is None \
        else given[0]
    # one list per time (sticks) or gap (the rest), transposed at the end
    vs, ks, ds, us = [v], [], [], []
    tables = {}
    for w, tau in enumerate(taus.tolist()):
        d = _prior_index(runs, tau, tables, rng)
        k = [rng.binomial(dj, vj) for dj, vj in zip(d, v)]
        if given is None:
            v = [min(max(rng.beta(aj + kj, bj + dj - kj), lo), hi)
                 for aj, bj, dj, kj in zip(a_s, b_s, d, k)]
        else:
            v = given[w + 1]
        vs.append(v)
        ks.append(k)
        ds.append(d)
        us.append(rng.random(count))  # uniform(size=count), bit for bit

    def by_stick(rows, dtype):
        return np.array(rows, dtype=dtype).reshape(-1, count).T.copy()

    dd = by_stick(ds, np.int64)
    o = _slice_at(dd, cfg.trans_slice_eta, by_stick(us, float))
    sticks, kk = by_stick(vs, float), by_stick(ks, np.int64)
    atoms = cfg.centering.sample(rng, count)
    return sticks, o, kk, dd, atoms


def init_chain(data: TimeGridDataset, cfg: SamplerConfig,
               rng: np.random.Generator) -> ChainState:
    """Construct a starting state with every invariant satisfied.

    The initial truncation is max(10, ceil(log(number of observations)));
    memberships are uniform over it, sticks start from their Beta
    marginals independently at each time, transition latents and atoms
    come from _prior_components given those sticks, and theta / c from
    their priors unless fixed.
    """
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
    u = _sample_u(s, cfg.slice_eta, rng)
    m = _truncation(u, cfg, sweep=0, floor=m)

    a, b = cfg.stick.params(m, theta)
    sticks = rng.beta(a[:, None], b[:, None], size=(m, data.n_times))
    sticks = np.clip(sticks, *OPEN_UNIT)
    fresh = _prior_components(cfg, theta, c, m, 0, data.gaps, rng, sticks)
    return ChainState(m=m, s=s.astype(np.int64), u=u,
                      **dict(zip(_COMPONENTS, fresh)),
                      theta=float(theta), c=float(c),
                      data_digest=data.digest())


def _truncation(u, cfg: SamplerConfig, sweep: int, floor: int = 0) -> int:
    """fixed_truncation when pinned, else the largest slice bound of u and
    at least floor; TruncationCapError naming the sweep past m_cap."""
    if cfg.fixed_truncation is not None:
        return cfg.fixed_truncation
    m = int(max(floor, slice_bounds(u, cfg.slice_eta).max()))
    if m > cfg.m_cap:
        raise TruncationCapError(
            f"truncation level {m} exceeds cap {cfg.m_cap} at sweep {sweep}; "
            "raise --m-cap (m_cap) or --eta (slice_eta)")
    return m


def update_slice_and_truncation(state: ChainState, data: TimeGridDataset,
                                cfg: SamplerConfig,
                                rng: np.random.Generator) -> None:
    """Resample u | s, recompute m, and grow or shrink the component set.

    New components are drawn from their joint augmented prior; dropped
    components need no bookkeeping because their conditional equals the
    prior. With fixed_truncation the level is pinned instead.
    """
    state.u = _sample_u(state.s, cfg.slice_eta, rng)
    m_new = _truncation(state.u, cfg, state.sweep)
    if m_new > state.m:
        fresh = _prior_components(cfg, state.theta, state.c,
                                  m_new - state.m, state.m, data.gaps, rng)
        for name, rows in zip(_COMPONENTS, fresh):
            setattr(state, name, np.vstack([getattr(state, name), rows]))
    elif m_new < state.m:
        for name in _COMPONENTS:
            setattr(state, name, getattr(state, name)[:m_new])
    state.m = m_new


def update_transition_latents(state: ChainState, data: TimeGridDataset,
                              cfg: SamplerConfig,
                              rng: np.random.Generator) -> None:
    """Gibbs scan over the (o, k, d) triples, all cells at once.

    Given the stick values the triples are conditionally independent
    across cells; within a cell the scan order is o, then k, then d.
    o | d is uniform on (0, g(d)); k | d, v is a finite discrete law on
    {0..d}; d | k, o lives on {k..floor(g_inv(o))}, which is nonempty by
    construction since o < g(d) and k <= d.
    """
    n = state.sticks.shape[1]
    if n < 2 or state.m == 0:
        return
    eta2 = cfg.trans_slice_eta
    a, b = cfg.stick.params(state.m, state.theta)
    v0 = state.sticks[:, :-1]
    v1 = state.sticks[:, 1:]
    d = state.trans_d

    o = _sample_slice(d, eta2, rng)
    if not np.all(o > 0.0):
        j, w = np.argwhere(~(o > 0.0))[0]
        raise NumericalError(
            f"transition slice o = exp(-{eta2:g} d) U underflowed to 0 at "
            f"latent index d={d[j, w]} (stick {j}, gap {w}) in sweep "
            f"{state.sweep}; lower --trans-eta (trans_slice_eta)")
    state.trans_o = o
    d_hi = slice_bounds(o, eta2).astype(np.int64)

    lv0, lv1 = np.log(v0), np.log(v1)
    l1mv0, l1mv1 = np.log1p(-v0), np.log1p(-v1)
    tab = _offset_gammaln(a, b, stick_runs(a, b, state.c),
                          size=int(max(d.max(), d_hi.max())) + 1)
    base = np.repeat(tab.base, n - 1)
    d_flat = d.ravel()

    # k | d, v on {0..d}
    ratio = (lv1 + lv0 - l1mv1 - l1mv0).ravel()
    state.trans_k = _draw_rows(
        lambda rows, j: _k_log_mass(tab, base[rows, None], d_flat[rows, None],
                                    ratio[rows, None], j),
        np.zeros_like(d), d, rng, "k", state.sweep)
    k_flat = state.trans_k.ravel()

    # d | k, o on {k..floor(g_inv(o))}
    decay = (l1mv1 + l1mv0 - state.c * data.gaps + eta2).ravel()
    state.trans_d = _draw_rows(
        lambda rows, j: _d_log_mass(tab, base[rows, None], k_flat[rows, None],
                                    decay[rows, None], j),
        state.trans_k, d_hi, rng, "d", state.sweep)


class _OffsetGammaln(NamedTuple):
    """gammaln at integer offsets j = 0..size - 1, built once per scan.

    fact[j] = gammaln(j + 1). a, b and ab hold gammaln(x + j) for x the
    a, b and a + b of each run of stick_runs, run r at [r size, (r + 1)
    size); base[i] is the start of stick i's run.
    """

    fact: np.ndarray
    a: np.ndarray
    b: np.ndarray
    ab: np.ndarray
    base: np.ndarray


def _offset_gammaln(a, b, runs, size: int) -> _OffsetGammaln:
    j = np.arange(size, dtype=float)
    lo = np.array([lo for lo, _, _ in runs])
    a_r, b_r = a[lo][:, None], b[lo][:, None]
    base = np.repeat(np.arange(len(runs)) * size,
                     [hi - lo for lo, hi, _ in runs])
    return _OffsetGammaln(gammaln(j + 1.0), gammaln(a_r + j).ravel(),
                          gammaln(b_r + j).ravel(),
                          gammaln((a_r + b_r) + j).ravel(), base)


def _k_log_mass(tab: _OffsetGammaln, base, d, ratio, j) -> np.ndarray:
    """log P(k = j | d, v) up to a row constant; column arguments per row.

    -log j! - log (d - j)! - log Gamma(a + j) - log Gamma(b + d - j)
    + j ratio; entries past a row's d are padding.
    """
    dj = d - j
    return (-tab.fact[j] - np.take(tab.fact, dj, mode="clip")
            - np.take(tab.a, base + j)
            - np.take(tab.b, base + dj, mode="clip") + j * ratio)


def _d_log_mass(tab: _OffsetGammaln, base, k, decay, j) -> np.ndarray:
    """log P(d = k + j | k, o, v) up to a row constant, for j inside the
    slice: 2 log Gamma(a + b + k + j) - log Gamma(b + j) - log j!
    + j decay. A j decay past double range is -inf, its exact value."""
    with np.errstate(over="ignore"):
        return (2.0 * np.take(tab.ab, base + k + j, mode="clip")
                - np.take(tab.b, base + j) - tab.fact[j]
                + j * decay)


def _draw_rows(log_mass_fn, lower: np.ndarray, upper: np.ndarray,
               rng: np.random.Generator, latent: str, sweep: int) -> np.ndarray:
    """Draw one value per (stick, gap) cell from {lower..upper}.

    log_mass_fn(rows, j) returns unnormalised log masses at offsets j
    (a row vector) from the lower bounds of rows, cells in row-major
    order. Rows go in power-of-two classes of their width upper - lower
    + 1, each padded to its own widest row and cut into blocks of at most
    4M entries, so the evaluated points stay within twice the summed
    widths. The uniforms are drawn once, in row order. A row without
    mass or support raises NumericalError naming latent, cell and sweep.
    """
    shape = upper.shape
    lower, upper = lower.ravel(), upper.ravel()
    u = rng.uniform(size=len(upper))
    out = np.empty(len(upper), dtype=np.int64)
    width = upper - lower + 1
    # class e holds widths in (2^(e - 1), 2^e]; empty supports join e = 0
    cls = np.frexp(np.maximum(width - 1, 0))[1]
    for e in np.unique(cls):
        members = np.flatnonzero(cls == e)
        w = max(1, int(width[members].max()))
        j = np.arange(w)[None, :]
        chunk = max(1, 4_000_000 // w)
        for lo in range(0, len(members), chunk):
            rows = members[lo:lo + chunk]
            idx = _categorical_rows(log_mass_fn(rows, j),
                                    j < width[rows, None], u[rows])
            if np.any(idx < 0):
                stick, gap = np.unravel_index(rows[np.argmax(idx < 0)], shape)
                raise NumericalError(
                    f"{latent} conditional has no mass at stick {stick}, gap "
                    f"{gap} in sweep {sweep}: every mass underflowed")
            out[rows] = lower[rows] + idx
    return out.reshape(shape)


def stick_conditional_shapes(state: ChainState, data: TimeGridDataset,
                             cfg: SamplerConfig):
    """Beta shapes of every stick-value full conditional, shape (m, n).

    shape1 = a_j + k_in + k_out + #{obs at t: s = j},
    shape2 = b_j + (d - k)_in + (d - k)_out + #{obs at t: s > j},
    where "in"/"out" are the transition triples entering and leaving the
    time point (absent at the ends). Exposed separately so tests can
    check the algebra without touching the draw.
    """
    m, n = state.sticks.shape
    a, b = cfg.stick.params(m, state.theta)
    # observations at each time sitting exactly at / strictly above label j
    eq = np.zeros((m, n))
    np.add.at(eq, (state.s, data.flat[1]), 1.0)
    gt = eq.sum(axis=0, keepdims=True) - np.cumsum(eq, axis=0)
    k_in = np.zeros((m, n))
    k_out = np.zeros((m, n))
    dk_in = np.zeros((m, n))
    dk_out = np.zeros((m, n))
    k_in[:, 1:] = state.trans_k
    k_out[:, :-1] = state.trans_k
    dk_in[:, 1:] = state.trans_d - state.trans_k
    dk_out[:, :-1] = state.trans_d - state.trans_k
    shape1 = a[:, None] + k_in + k_out + eq
    shape2 = b[:, None] + dk_in + dk_out + gt
    return shape1, shape2


def update_stick_values(state: ChainState, data: TimeGridDataset,
                        cfg: SamplerConfig,
                        rng: np.random.Generator) -> None:
    """Conjugate Beta redraw of every stick value.

    Conditionally on the transition triples and memberships, all (j, i)
    entries are independent, so the whole (m, n) matrix refreshes in one
    vectorised draw.
    """
    shape1, shape2 = stick_conditional_shapes(state, data, cfg)
    v = rng.beta(shape1, shape2)
    state.sticks = np.clip(v, *OPEN_UNIT)


def update_locations(state: ChainState, data: TimeGridDataset,
                     cfg: SamplerConfig,
                     rng: np.random.Generator) -> None:
    """Normal-gamma conjugate redraw of every atom.

    Clusters without members fall back to a fresh prior draw, which the
    sum-form update yields automatically.
    """
    y, _ = data.flat
    m = state.m
    cm = cfg.centering
    n_j = np.bincount(state.s, minlength=m).astype(float)
    sum_y = np.bincount(state.s, weights=y, minlength=m)
    sum_y2 = np.bincount(state.s, weights=y * y, minlength=m)
    scale_n = cm.precision_scale + n_j
    mean_n = (cm.precision_scale * cm.mean0 + sum_y) / scale_n
    shape_n = cm.shape + 0.5 * n_j
    rate_n = cm.rate + 0.5 * (
        sum_y2 + cm.precision_scale * cm.mean0 ** 2 - scale_n * mean_n ** 2)
    rate_n = np.maximum(rate_n, np.finfo(float).tiny)
    prec = rng.gamma(shape_n, 1.0 / rate_n)
    mean = rng.normal(mean_n, 1.0 / np.sqrt(scale_n * prec))
    state.atoms = np.column_stack([mean, prec])


class _StickTerms:
    """Log density of sticks and (k, d) latents given stick parameters
    (a, b) and rate c, in stages for evaluation at many (a, b, c).

    Collects every factor that depends on the stick hyperparameters: the
    Beta marginal at the first time, the Negative-Binomial series weights
    and the Beta transition components. Binomial factors and the o slices
    carry no hyperparameter dependence and are omitted.

    The constructor computes what depends on neither theta nor c: the
    logs of the stick values and log d!. at(a, b) adds the terms of one
    set of stick parameters and returns the log likelihood as a function
    of c alone, which evaluates no log-gamma. Each stage keeps the
    operation order of the likelihood written as one expression
    (tests/oracles.py), so the value is the same to the bit however the
    stages are reused.
    """

    def __init__(self, sticks, k, d, taus):
        v_first, v1 = sticks[:, 0], sticks[:, 1:]
        self.log_first = np.log(v_first), np.log1p(-v_first)
        self.log_later = np.log(v1), np.log1p(-v1)
        self.k, self.d, self.taus = k, d, taus
        self.log_fact = gammaln(d + 1.0)

    def at(self, a, b):
        """log likelihood as a function of c at stick parameters (a, b)."""
        lv, l1mv = self.log_first
        total = float(np.sum((a - 1.0) * lv + (b - 1.0) * l1mv
                             - betaln(a, b)))
        r, A, B = (a + b)[:, None], a[:, None], b[:, None]
        k, d, taus = self.k, self.d, self.taus
        lv1, l1mv1 = self.log_later
        g = gammaln(r + d)
        ak, bdk = A + k, B + d - k
        comp = (g - gammaln(ak) - gammaln(bdk) + (ak - 1.0) * lv1
                + (bdk - 1.0) * l1mv1).sum()
        coef = g - gammaln(r) - self.log_fact

        def log_lik(c: float) -> float:
            series = wf._log_nb_from_coef(coef, d, r, c * taus)
            return total + float(series.sum() + comp)
        return log_lik


def update_hyperparams(state: ChainState, data: TimeGridDataset,
                       cfg: SamplerConfig,
                       rng: np.random.Generator) -> None:
    """Adaptive log-scale random-walk Metropolis on theta and c.

    One Metropolis step runs each move in turn: theta unless fixed
    (carrying c = theta / 2 along under tie_c_to_theta), then c unless
    fixed or tied. Step sizes chase an acceptance rate near 0.44 with
    diminishing adaptation (MHAdaptation.record), frozen once the sweep
    count passes the burn-in.

    The target is the stick likelihood of _StickTerms, built only when a
    move runs: the theta- and c-free terms once per call and the theta
    terms once per theta visited. The c move evaluates its current value
    from the terms of the kept theta, and no c evaluation calls a
    log-gamma.
    """
    moves = []  # (name, log prior, value -> the (theta, c) it proposes)
    if cfg.fix_theta is None:
        moves.append(("theta", cfg.theta_prior.logpdf, lambda th: (
            th, th / 2.0 if cfg.tie_c_to_theta else state.c)))
    if cfg.fix_c is None and not cfg.tie_c_to_theta:
        moves.append(("c", cfg.c_prior.logpdf, lambda cv: (state.theta, cv)))
    if not moves:
        return
    terms = _StickTerms(state.sticks, state.trans_k, state.trans_d,
                        data.gaps)
    at_theta = {}  # theta -> the target as a function of c

    def target(theta, c):
        if theta not in at_theta:
            at_theta[theta] = terms.at(*cfg.stick.params(state.m, theta))
        return at_theta[theta](c)

    for name, log_prior, point in moves:
        value = getattr(state, name)
        cur = log_prior(value) + target(*point(value))
        if not np.isfinite(cur):
            raise NumericalError(
                "non-finite hyperparameter log posterior at current state: "
                f"value={value}, m={state.m}, sweep={state.sweep}, "
                f"theta={state.theta}, c={state.c}, "
                f"d_max={int(state.trans_d.max()) if state.trans_d.size else 0}"
            )
        x = math.log(value)
        x_new = x + math.exp(getattr(state.mh, "log_step_" + name)) \
            * rng.standard_normal()
        new = math.exp(x_new)
        log_acc = log_prior(new) + target(*point(new)) - cur + (x_new - x)
        accepted = math.log(max(rng.uniform(), 1e-300)) < log_acc
        if accepted:
            setattr(state, name, new)
            if cfg.tie_c_to_theta:
                state.c = new / 2.0
        state.mh.record(name, accepted, state.sweep < cfg.burn_in)


def update_membership(state: ChainState, data: TimeGridDataset,
                      cfg: SamplerConfig,
                      rng: np.random.Generator) -> None:
    """Finite discrete redraw of every observation's membership.

    Candidates for observation i are the labels with psi(label) > u_i
    (clipped to the stored components when the truncation is pinned);
    masses are w_label(t_i) / psi(label) times the kernel density.
    Label 1 is always a candidate with a finite stick weight, so a row
    without mass means every candidate kernel underflowed, which a fresh
    u cannot mend: NumericalError names the first such observation.
    """
    y, tidx = data.flat
    eta = cfg.slice_eta
    m = state.m
    log_w = np.log(sticks_to_weights_matrix(state.sticks))
    log_kernel = gaussian_logpdf(y[:, None], state.atoms[None, :, 0],
                                 state.atoms[None, :, 1])
    labels = np.arange(1, m + 1, dtype=float)
    log_mass = log_w[:, tidx].T + eta * labels[None, :] + log_kernel
    bounds = np.minimum(slice_bounds(state.u, eta), m)
    s_new = _categorical_rows(log_mass, labels[None, :] <= bounds[:, None],
                              rng.uniform(size=len(bounds)))
    if np.any(s_new < 0):
        worst = int(np.flatnonzero(s_new < 0)[0])
        raise NumericalError(
            f"membership masses underflowed for observation {worst} "
            f"(y={y[worst]:.6g}, t index={int(tidx[worst])}, m={m}); the "
            "kernel cannot reach this observation")
    state.s = s_new.astype(np.int64)


def update_label_swaps(state: ChainState, data: TimeGridDataset,
                       cfg: SamplerConfig,
                       rng: np.random.Generator) -> None:
    """Metropolis swaps of adjacent component labels.

    Label birth at high indices is geometrically penalised by both the
    stick-breaking products and the slice labels, which makes plain
    sweeps slow to move mass between labels. Swapping the entire
    component (stick path, transition triples, atom) between positions j
    and j + 1, with memberships relabelled, is a standard accelerator.
    The acceptance ratio collects the membership-mass change of affected
    observations, the slice indicators u_i < psi(new label), and, only
    when positions j and j + 1 carry different (a, b), the change of
    path prior of both sticks across the two positions.
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
        # observations moving up must still satisfy their slice bound
        if np.any(state.u[at_j] >= np.exp(-eta * (j + 2.0))):
            continue
        # an empty side sums to exactly 0.0
        log_ratio = float(np.sum(np.log1p(
            -state.sticks[j + 1, tidx[at_j]]))) + eta * int(at_j.sum())
        log_ratio += -float(np.sum(np.log1p(
            -state.sticks[j, tidx[at_j1]]))) - eta * int(at_j1.sum())
        if j + 1 in law_changes:
            # each stick's path prior at the other's position, less its own
            rows = [_StickTerms(state.sticks[i:i + 1], state.trans_k[i:i + 1],
                                state.trans_d[i:i + 1], taus)
                    for i in (j, j + 1)]
            for own, other in ((0, 1), (1, 0)):
                params = a[j + own:j + own + 1], b[j + own:j + own + 1]
                log_ratio += rows[other].at(*params)(state.c)
                log_ratio -= rows[own].at(*params)(state.c)
        if np.log(max(unif[j], 1e-300)) < log_ratio:
            for name in _COMPONENTS:
                arr = getattr(state, name)
                arr[[j, j + 1]] = arr[[j + 1, j]]
            state.s[at_j] = j + 1
            state.s[at_j1] = j


def gibbs_sweep(state: ChainState, data: TimeGridDataset, cfg: SamplerConfig,
                rng: np.random.Generator) -> None:
    """One full scan in fixed order: slices and truncation, transition
    latents, stick values, atoms, hyperparameters, memberships, and
    (unless disabled) label-swap moves."""
    update_slice_and_truncation(state, data, cfg, rng)
    update_transition_latents(state, data, cfg, rng)
    update_stick_values(state, data, cfg, rng)
    update_locations(state, data, cfg, rng)
    update_hyperparams(state, data, cfg, rng)
    update_membership(state, data, cfg, rng)
    if cfg.label_swap_moves:
        update_label_swaps(state, data, cfg, rng)
    state.sweep += 1


def data_log_likelihood(state: ChainState, data: TimeGridDataset) -> float:
    """Log likelihood of the data under the current truncated mixture,
    renormalised by the retained weight mass."""
    y, tidx = data.flat
    kernel = np.exp(gaussian_logpdf(y[:, None], state.atoms[None, :, 0],
                                    state.atoms[None, :, 1]))
    dens = renormalised_mixture(state.sticks, kernel, tidx)
    return float(np.sum(np.log(np.maximum(dens, 1e-300))))


def check_invariants(state: ChainState, data: TimeGridDataset,
                     cfg: SamplerConfig) -> None:
    """Raise AssertionError unless every chain invariant holds."""
    broken = _broken_invariant(vars(state), state.m, cfg, data)
    assert broken is None, "{} {}".format(*broken)
    assert state.m == _truncation(state.u, cfg, state.sweep), \
        "truncation out of sync"
    assert state.theta > 0 and state.c > 0


def run_chain(data: TimeGridDataset, cfg: SamplerConfig, *,
              telemetry: IO[str] | None = None,
              checkpoint_path=None, checkpoint_every: int | None = None,
              resume_from=None) -> PosteriorDraws:
    """Run burn_in + iters sweeps and collect every thin-th post-burn-in state.

    Telemetry, when given a stream, receives one machine-readable
    key=value line per sweep. Checkpoints capture chain, generator and
    snapshots every checkpoint_every sweeps (both checkpoint arguments
    or neither); resuming from one reproduces the uninterrupted run bit
    for bit under the same seed and data.
    """
    if (checkpoint_path is None) != (checkpoint_every is None):
        raise ValueError("checkpoint_path and checkpoint_every go together")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    if resume_from is not None:
        state, rng, snapshots = load_checkpoint(resume_from, cfg, data)
    else:
        rng = np.random.default_rng(cfg.seed)
        state = init_chain(data, cfg, rng)
        snapshots = []
    total = cfg.burn_in + cfg.iters
    for sweep in range(state.sweep, total):
        gibbs_sweep(state, data, cfg, rng)
        post = state.sweep - cfg.burn_in
        if post > 0 and post % cfg.thin == 0:
            snapshots.append(_snapshot(state))
        if telemetry is not None:
            telemetry.write(
                f"sweep={state.sweep} m={state.m} theta={state.theta:.6g} "
                f"c={state.c:.6g} acc_theta={state.mh.rate_theta():.3f} "
                f"acc_c={state.mh.rate_c():.3f} "
                f"loglik={data_log_likelihood(state, data):.6g}\n")
        if checkpoint_every is not None \
                and state.sweep % checkpoint_every == 0 and state.sweep < total:
            save_checkpoint(checkpoint_path, state, rng, cfg, snapshots)
    return PosteriorDraws.from_snapshots(data.times, snapshots, cfg)
