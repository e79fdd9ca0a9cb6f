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

# _draw_rows merges adjacent width groups while the padded points a merge
# adds stay below this count. Over 12 README-data chain states on a 2-core
# x86 host the latent draws took 25 ms in all at 1,024 and at 4,096, 26-34
# ms at 16,384, 56-64 ms at 65,536 and 28-38 ms without merging.
_MERGE_PADDING = 4096

# _categorical sums a draw's masses by one add per support row when it has
# at least this many columns, else by np.cumsum along the support: on the
# same host a row add costs about 1 us of call overhead and the cumsum
# along axis 0 about 3 ns an entry. The wide form also finds each pick by
# counting the partial sums below its target, which at README shapes
# (16 x 1,544) costs less than argmax along axis 0; narrower draws keep
# argmax, faster on dense shapes.
_ROW_ADD_COLUMNS = 320

# A table of values at integer keys pays once the uses it serves outnumber
# its entries this many times (_table_pays): a gathered use costs a few
# index operations, a table entry its full arithmetic, and each table some
# calls. Three tables follow the rule: the log-gamma rows of _StickTerms
# (_cell_gammaln), and the key parts of the k and of the d log masses of
# update_transition_latents. On README states (100 times) a Dirichlet
# process has about 2,400 cells against 40-300 log-gamma entries, and
# about 26,000 k and 18,000 d support points against some 2,000 key
# entries, and gathers all three; Pitman-Yor, with a row per stick, the
# one-stick path prior of label swaps and dense grids (keys up to ~1,000,
# a million key entries) evaluate cell by cell.
_GATHER_RATIO = 4


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


def _categorical(log_mass: np.ndarray, width: np.ndarray | None,
                 u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per column of unnormalised log masses (support x
    columns), one uniform u per column; overwrites log_mass.

    A column's first width entries are its support and the rest padding,
    set to -inf here; width None takes masses already -inf past each
    column's support; the mask follows log_mass's memory order, C or
    Fortran. Each column is summed in support order, by np.cumsum or, for
    wide C-ordered masses, by one add per support row, the same additions
    either way. Padding adds exact zeros after the column's last mass, so
    the cumulative sums, their total and the first index past the target
    do not depend on how far a column is padded. Columns whose support
    entries all underflow to zero mass come back as -1.
    """
    n, cols = log_mass.shape
    cell_major = np.isfortran(log_mass)
    if width is not None:
        if cell_major:  # masked through its C-ordered transpose
            np.putmask(log_mass.T, np.arange(n) >= width[:, None], -np.inf)
        else:
            np.putmask(log_mass, np.arange(n)[:, None] >= width, -np.inf)
    mx = log_mass.max(axis=0)
    log_mass -= np.where(np.isfinite(mx), mx, 0.0)
    csum = np.exp(log_mass, out=log_mass)
    wide = cols >= _ROW_ADD_COLUMNS and not cell_major
    if wide:
        for i in range(1, n):
            np.add(csum[i - 1], csum[i], out=csum[i])
    else:
        np.cumsum(csum, axis=0, out=csum)
    total = csum[-1]
    # target in (0, total]: strictly positive so zero-mass prefixes are skipped
    target = total * (1.0 - u)
    if wide:
        # partial sums never decrease and a NaN carries through to the
        # total, where both forms give 0: the count is the argmax below
        idx = np.count_nonzero(csum < target, axis=0)
    else:
        idx = np.argmax(csum >= target, axis=0)
    idx[total <= 0.0] = -1
    return idx


def _sample_u(s, eta, rng) -> np.ndarray:
    """u | s ~ U(0, psi(s + 1)), floored so log(u) stays finite."""
    return np.maximum(rng.uniform(0.0, np.exp(-eta * (s + 1.0))), 1e-300)


def _series_tables(runs, tau: float) -> list[np.ndarray]:
    """The cached series table of each run of stick_runs at gap tau;
    SeriesTruncationError names the first run that cannot resolve it."""
    cums = []
    for _, _, p in runs:
        r, ct = p.a + p.b, p.c * tau
        try:
            cums.append(wf._nb_cumulative(r, ct))
        except SeriesTruncationError:  # a + b past double range
            cums.append(None)
        if cums[-1] is None or not wf._nb_resolved(cums[-1]):
            raise SeriesTruncationError(
                f"gap {tau:g} between consecutive observation times gives "
                f"c tau = {ct:g} at a + b = {r:g}, "
                + _unresolved_cause(r, ct))
    return cums


def _prior_index(runs, cums, rng) -> list[int]:
    """Series index d ~ r_tau per stick: one draw per run from cums."""
    return [d for (lo, hi, _), cum in zip(runs, cums)
            for d in wf._draw_index(cum, rng, hi - lo).tolist()]


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
    lower_helps = wf._nb_resolved(wf._nb_cumulative(1.0, ct))
    return ("too small to resolve the series index within its cap; merge "
            f"near-duplicate times, or {raise_c}"
            + (f", or {lower_theta}" if lower_helps else ""))


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
    gap d ~ r_tau for every stick (one run of stick_runs at a time, from
    each distinct gap's tables, resolved before the first d and held to
    the last), k ~ Bin(d, v_prev) for every stick,
    v_next ~ Beta(a + k, b + d - k) for every stick, and the uniforms of
    the slices o | d. Given sticks of shape (count, times), the stick
    values are taken from them in place of both Beta draws, and
    everything else is drawn as above.

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
    gaps = taus.tolist()
    tables = {tau: _series_tables(runs, tau) for tau in dict.fromkeys(gaps)}
    for w, tau in enumerate(gaps):
        d = _prior_index(runs, tables[tau], rng)
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
    runs = stick_runs(a, b, state.c)
    tab = _offset_gammaln(a, b, runs,
                          size=int(max(d.max(), d_hi.max())) + 1)
    # one run (every Dirichlet process): its tables are read as columns
    base = np.repeat(tab.base, n - 1) if len(runs) > 1 else None

    def at(rows):
        return None if base is None else base[rows]
    d_flat = d.ravel()

    # k | d, v on {0..d}; its masses are -inf past d, so unmasked
    ratio = (lv1 + lv0 - l1mv1 - l1mv0).ravel()
    tab = tab._replace(k_keys=_key_table(tab, _k_key, d.size + int(d.sum())))
    state.trans_k = _draw_rows(
        lambda rows, j: _k_log_mass(tab, at(rows), d_flat[rows],
                                    ratio[rows], j),
        np.zeros_like(d), d, rng, "k", state.sweep, padded=True)
    k_flat = state.trans_k.ravel()

    # d | k, o on {k..floor(g_inv(o))}; a c tau past double range is inf
    with np.errstate(over="ignore"):
        decay = (l1mv1 + l1mv0 - state.c * data.gaps + eta2).ravel()
    tab = tab._replace(d_keys=_key_table(
        tab, _d_key, int((d_hi - state.trans_k).sum()) + d.size))
    state.trans_d = _draw_rows(
        lambda rows, j: _d_log_mass(tab, at(rows), k_flat[rows],
                                    decay[rows], j),
        state.trans_k, d_hi, rng, "d", state.sweep)


class _OffsetGammaln(NamedTuple):
    """gammaln at integer offsets j = -1..size - 1, built once per scan,
    offset j at index j + 1 of each row.

    fact[j + 1] = gammaln(j + 1), so fact[0] = gammaln(0) = +inf is the
    log factorial every negative offset reads. a, b and ab hold
    gammaln(x + j) for x the a, b and a + b of each run of stick_runs,
    run r at [r (size + 1), (r + 1) (size + 1)); base[i] is the start of
    stick i's run. k_keys and d_keys, when built (_key_table), hold the
    key parts of the k and d log masses.
    """

    fact: np.ndarray
    a: np.ndarray
    b: np.ndarray
    ab: np.ndarray
    base: np.ndarray
    k_keys: np.ndarray | None = None
    d_keys: np.ndarray | None = None


def _offset_gammaln(a, b, runs, size: int) -> _OffsetGammaln:
    lo = np.array([lo for lo, _, _ in runs])
    a_r, b_r = a[lo], b[lo]
    base = np.repeat(np.arange(len(runs)) * (size + 1),
                     [hi - lo for lo, hi, _ in runs])
    return _OffsetGammaln(*(_gammaln_rows(x, size, start=-1) for x in (
        np.ones(1), a_r, b_r, a_r + b_r)), base)


def _gammaln_rows(x, size: int, start: int = 0) -> np.ndarray:
    """gammaln(x_r + j) at j = start..size - 1 for each entry x_r, row r
    at [r (size - start), (r + 1) (size - start)) of one flat table.

    The one log-gamma table routine of the latent draws and the stick
    likelihood: x_r + j is the float sum a per-cell gammaln(x_r + j)
    takes, so a gathered entry holds the same bits."""
    return gammaln(x[:, None] + np.arange(start, size, dtype=float)).ravel()


def _value_runs(x):
    """(first value of each run of equal entries in x, each entry's run
    index), the index None when x is one run."""
    xs = x.tolist()
    firsts = [i for i in range(1, len(xs)) if xs[i] != xs[i - 1]]
    if not firsts:
        return x[:1], None
    run = np.zeros(len(xs), dtype=np.int64)
    run[firsts] = 1
    return x[[0, *firsts]], np.cumsum(run)


def _table_pays(entries: int, uses: int) -> bool:
    """Whether a table of entries values serves its uses more cheaply than
    evaluating each use: at most 1 / _GATHER_RATIO entries per use."""
    return entries * _GATHER_RATIO <= uses


def _cell_gammaln(x, idx, size: int) -> np.ndarray:
    """gammaln(x_i + idx_ij) for row values x and integer offsets idx
    (rows x columns) below size: gathered from one table row per run of
    equal x when those rows pay for the cells (_table_pays), else
    evaluated cell by cell."""
    if _table_pays(size, idx.size):  # else no table can pay
        keys, run = _value_runs(x)
        if _table_pays(len(keys) * size, idx.size):
            table = _gammaln_rows(keys, size)
            return table[idx if run is None else (run * size)[:, None] + idx]
    return gammaln(x[:, None] + idx)


def _key_table(tab: _OffsetGammaln, key_fn, points: int):
    """key_fn at every run, key -1..size - 1 and offset j = 0..size - 1 as
    one (offsets x keys) table, key column base + key + 1, when it pays
    for a draw's points support points (_table_pays); else None. The
    entries are key_fn's own, so a gather holds the bits a cell's
    evaluation gives."""
    size, cols = len(tab.fact) - 1, len(tab.a)
    if not _table_pays(size * cols, points):
        return None
    col = np.arange(cols)
    start = col - col % (size + 1)
    return key_fn(tab, start, col - start - 1, np.arange(size)[:, None])


def _keys_at(table, base, key, j) -> np.ndarray:
    """Entries of a _key_table table at row keys key (of runs at base, None
    for one run) and the offset column j = 0..w - 1; for row keys of
    shape (rows, 1) and j a row, the transpose."""
    col = key + 1 if base is None else base + key + 1
    if col.ndim == 1:
        return np.take(table[:len(j)], col, axis=1)
    return np.take(table[:j.size].T, col[:, 0], axis=0)


def _k_key(tab: _OffsetGammaln, base, d, j) -> np.ndarray:
    """-log j! - log (d - j)! - log Gamma(a + j) - log Gamma(b + d - j),
    one column per row for row keys d and the offset column j. Past a
    row's d the offset d - j is negative and log (d - j)! reads fact[0]
    = +inf: the entry is -inf. base None reads the tables of one run:
    log Gamma(a + j) is then a broadcast column."""
    j1, dj1 = j + 1, (d + 1) - j
    if base is None:
        a_j, b_dj = tab.a[j1], np.take(tab.b, dj1, mode="clip")
    else:
        a_j = np.take(tab.a, base + j1)
        b_dj = np.take(tab.b, base + dj1, mode="clip")
    return -tab.fact[j1] - np.take(tab.fact, dj1, mode="clip") - a_j - b_dj


def _k_log_mass(tab: _OffsetGammaln, base, d, ratio, j) -> np.ndarray:
    """log P(k = j | d, v) up to a row constant, one column per row for
    row arguments of shape (rows,) and the support column j = 0..w - 1:
    the key part _k_key, gathered from tab.k_keys when built, + j ratio.
    Entries past a row's d are -inf."""
    out = _k_key(tab, base, d, j) if tab.k_keys is None \
        else _keys_at(tab.k_keys, base, d, j)
    out += j * ratio
    return out


def _d_key(tab: _OffsetGammaln, base, k, j) -> np.ndarray:
    """2 log Gamma(a + b + k + j) - log Gamma(b + j) - log j!, one column
    per row for row keys k and the offset column j. base None reads the
    tables of one run: log Gamma(b + j) is then a broadcast column."""
    j1 = j + 1
    if base is None:
        ab_kj, b_j = np.take(tab.ab, (k + 1) + j, mode="clip"), tab.b[j1]
    else:
        ab_kj = np.take(tab.ab, (base + k + 1) + j, mode="clip")
        b_j = np.take(tab.b, base + j1)
    return 2.0 * ab_kj - b_j - tab.fact[j1]


def _d_log_mass(tab: _OffsetGammaln, base, k, decay, j) -> np.ndarray:
    """log P(d = k + j | k, o, v) up to a row constant, one column per row
    for row arguments of shape (rows,) and the support column j = 0..w - 1
    (one row per row for (rows, 1) and j a row), j inside the slice: the
    key part _d_key, gathered from tab.d_keys when built, + j decay. A j
    decay past double range is -inf, its exact value; the j = 0 term is 0,
    its limit also at decay = -inf (c tau past double range), which
    leaves all mass at d = k."""
    out = _d_key(tab, base, k, j) if tab.d_keys is None \
        else _keys_at(tab.d_keys, base, k, j)
    with np.errstate(over="ignore"):
        if decay.ndim == 1:
            out[1:] += j[1:] * decay
        else:
            out[:, 1:] += j[:, 1:] * decay
    return out


def _draw_rows(log_mass_fn, lower: np.ndarray, upper: np.ndarray,
               rng: np.random.Generator, latent: str, sweep: int,
               padded: bool = False) -> np.ndarray:
    """Draw one value per (stick, gap) cell from {lower..upper}.

    log_mass_fn(rows, j) returns unnormalised log masses at offsets j =
    0..w - 1 from the lower bounds of rows, cells in row-major order, row
    arguments broadcast against j: rows of shape (rows,) and j a column
    give one column per row, rows of shape (rows, 1) and j a row one row
    per row. One stable argsort orders the rows by their width upper -
    lower + 1; the sorted rows are cut at the power-of-two class edges,
    and a group joins the next while the padded points the join adds stay
    below _MERGE_PADDING. Each group is padded to its widest row and cut
    into blocks of at most 4M entries, whose (support x cells) masses are
    in Fortran order, each cell's support contiguous, where _cell_major
    says so and in C order otherwise. Layout and padding change no mass
    or pick (_categorical), so both are cost choices. padded
    says log_mass_fn already gives -inf past each row's support, so the
    masses go to _categorical unmasked. The uniforms are drawn once, in
    row order. Rows without mass or support raise NumericalError naming
    latent, sweep and the first such cell in row-major order; nothing is
    drawn into the state before that check.
    """
    shape = upper.shape
    lower, upper = lower.ravel(), upper.ravel()
    u = rng.uniform(size=len(upper))
    out = np.empty(len(upper), dtype=np.int64)
    width = upper - lower + 1
    # a stable radix sort when the widths fit 16 bits (widths are >= 0)
    order = np.argsort(width.astype(np.int16) if width.max() < 2 ** 15
                       else width, kind="stable")
    width = width[order]
    for lo, hi in _width_groups(width):
        w = max(1, int(width[hi - 1]))
        j = np.arange(w)[:, None]
        cell_major = _cell_major(w, hi - lo)
        chunk = max(1, 4_000_000 // w)
        for start in range(lo, hi, chunk):
            stop = min(start + chunk, hi)
            rows = order[start:stop]
            mass = log_mass_fn(rows[:, None], j.T).T if cell_major \
                else log_mass_fn(rows, j)
            out[rows] = lower[rows] + _categorical(
                mass, None if padded else width[start:stop], u[rows])
    lost = np.flatnonzero(out < lower)
    if len(lost):
        stick, gap = np.unravel_index(lost[0], shape)
        raise NumericalError(
            f"{latent} conditional has no mass at stick {stick}, gap {gap} "
            f"in sweep {sweep}: every mass underflowed")
    return out.reshape(shape)


def _cell_major(width: int, cells: int) -> bool:
    """Whether _draw_rows lays out a group of cells padded to width cell by
    cell: when it is taller than wide, as dense grids' groups of a few
    dozen cells padded to 500-1,000 points are."""
    return width > cells


def _width_groups(width: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) groups of nondecreasing widths: cut where the power-of-two
    class (2^(e - 1), 2^e] changes, empty supports with e = 0, and a group
    merged into the next while that pads fewer than _MERGE_PADDING points."""
    cls = np.frexp(np.maximum(width - 1, 0))[1]
    ends = [*(np.flatnonzero(cls[1:] != cls[:-1]) + 1).tolist(), len(width)]
    groups, lo, hi = [], 0, ends[0]
    for nxt in ends[1:]:
        if (hi - lo) * int(width[nxt - 1] - width[hi - 1]) < _MERGE_PADDING:
            hi = nxt
        else:
            groups.append((lo, hi))
            lo, hi = hi, nxt
    groups.append((lo, hi))
    return groups


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
    of c alone, which evaluates no log-gamma. log d!, log Gamma(a + k)
    and log Gamma(a + b + d) are gathered from tables at integer offsets
    per run of equal 1, a and a + b as _cell_gammaln chooses; log Gamma(b
    + d - k) is evaluated cell by cell. Each stage keeps the operation
    order of the likelihood written as one expression (tests/oracles.py),
    so the value is the same to the bit however the stages are reused.
    """

    def __init__(self, sticks, k, d, taus):
        v_first, v1 = sticks[:, 0], sticks[:, 1:]
        self.log_first = np.log(v_first), np.log1p(-v_first)
        self.log_later = np.log(v1), np.log1p(-v1)
        self.k, self.d, self.taus = k, d, taus
        self.size = int(d.max()) + 1 if d.size else 1
        self.log_fact = _cell_gammaln(np.ones(len(d)), d, self.size)

    def at(self, a, b):
        """log likelihood as a function of c at stick parameters (a, b)."""
        lv, l1mv = self.log_first
        total = float(((a - 1.0) * lv + (b - 1.0) * l1mv
                       - betaln(a, b)).sum())
        r, A, B = (a + b)[:, None], a[:, None], b[:, None]
        k, d, taus, size = self.k, self.d, self.taus, self.size
        lv1, l1mv1 = self.log_later
        g = _cell_gammaln(a + b, d, size)
        ak, bdk = A + k, B + d - k
        comp = (g - _cell_gammaln(a, k, size) - gammaln(bdk)
                + (ak - 1.0) * lv1 + (bdk - 1.0) * l1mv1).sum()
        coef = g - gammaln(r) - self.log_fact

        def log_lik(c: float) -> float:
            with np.errstate(over="ignore"):  # c tau = inf is exact
                ct = c * taus
            series = wf._log_nb_from_coef(coef, d, r, ct)
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
    log-gamma. Without components the target is 0.0 at every (theta, c),
    the value the terms would sum to, and no array is built.
    """
    moves = []  # (name, log prior, value -> the (theta, c) it proposes)
    if cfg.fix_theta is None:
        moves.append(("theta", cfg.theta_prior.logpdf, lambda th: (
            th, th / 2.0 if cfg.tie_c_to_theta else state.c)))
    if cfg.fix_c is None and not cfg.tie_c_to_theta:
        moves.append(("c", cfg.c_prior.logpdf, lambda cv: (state.theta, cv)))
    if not moves:
        return
    if state.m:
        terms = _StickTerms(state.sticks, state.trans_k, state.trans_d,
                            data.gaps)
        at_theta = {}  # theta -> the target as a function of c

        def target(theta, c):
            if theta not in at_theta:
                at_theta[theta] = terms.at(*cfg.stick.params(state.m, theta))
            return at_theta[theta](c)
    else:
        def target(theta, c):  # no sticks: every factor an empty sum
            return 0.0

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
    log_kernel = gaussian_logpdf(y, state.atoms[:, 0, None],
                                 state.atoms[:, 1, None])
    labels = np.arange(1, m + 1, dtype=float)
    # (labels x observations); the candidates 1..bound are each column's prefix
    log_mass = log_w[:, tidx] + eta * labels[:, None] + log_kernel
    bounds = np.minimum(slice_bounds(state.u, eta), m)
    s_new = _categorical(log_mass, bounds, rng.uniform(size=len(bounds)))
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

    One stable argsort of s lists each label's observations as one block
    in index order, the order the boolean masks s == j gave; an accepted
    swap exchanges the two blocks, so each pair's sums run over the same
    entries in the same order as a fresh mask would.
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
    by_label = np.argsort(state.s, kind="stable")
    ends = np.cumsum(np.bincount(state.s, minlength=m)).tolist()

    def log_rest(row, obs) -> float:
        """sum of log(1 - v) at stick row over obs; for none the 0.0 that
        np.sum of no entries gives"""
        return float(np.sum(np.log1p(-state.sticks[row, tidx[obs]]))) \
            if len(obs) else 0.0

    for j in range(m - 1):
        lo, mid, hi = ends[j - 1] if j else 0, ends[j], ends[j + 1]
        at_j, at_j1 = by_label[lo:mid], by_label[mid:hi]
        # observations moving up must still satisfy their slice bound
        if mid > lo and state.u[at_j].max() >= np.exp(-eta * (j + 2.0)):
            continue
        log_ratio = log_rest(j + 1, at_j) + eta * (mid - lo)
        log_ratio += -log_rest(j, at_j1) - eta * (hi - mid)
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
                arr[j:j + 2] = arr[j:j + 2][::-1]
            state.s[at_j] = j + 1
            state.s[at_j1] = j
            by_label[lo:hi] = np.concatenate([at_j1, at_j])
            ends[j] = lo + hi - mid


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
