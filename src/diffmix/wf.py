"""One-dimensional Wright-Fisher diffusion engine.

The process lives on [0, 1] and is parametrised by (a, b, c) with a, b > 0
controlling the Beta(a, b) invariant law and c > 0 setting the time scale.
In its standard form (c = (a + b - 1) / 2) the SDE reads

    dv(t) = 1/2 [a (1 - v) - b v] dt + sqrt(v (1 - v)) dB(t),

and the generalised, time-rescaled form used throughout is

    dv(t) = c (a - (a + b) v) / (a + b - 1) dt
            + sqrt(2 c / (a + b - 1) * v (1 - v)) dB(t),

valid for a + b > 1, where 0 and 1 are entrance boundaries.

Two mixture representations of the transition mechanism appear here, both
of the Beta-Binomial form

    p(v1 | v0, t) = sum_m w_m(t) D(v1 | m, v0),
    D(v1 | m, v0) = sum_{k=0}^m Beta(v1 | a + k, b + m - k) Bin(k | m, v0),

differing only in the law of the series index m:

* exact weights: m is the number of surviving ancestral lineages at
  (standardised) time t, a pure-death process started from infinity with
  quadratic rates i (i + a + b - 1) / 2. These weights make the mixture
  the exact diffusion transition function; `transition_density` and
  `sample_transition` use them. The alternating series behind them is
  evaluated with cancellation-error control and an arbitrary-precision
  fallback for small times.

* Negative-Binomial weights r_t(m) with size a + b and success parameter
  e^{-c t} (`nb_weight`, `series_transition_density`). All summands are
  positive, so this family supports slice augmentation and drives the
  Gibbs sampler. It preserves the Beta(a, b) law exactly and matches the
  diffusion semigroup to first order in t, but it is not the exact
  transition: at (a, b, c) = (1, 4, 2), t = 0.1 the Kolmogorov-Smirnov
  gap to the diffusion law is about 0.016 and its conditional-mean decay
  E[v(t) | v0] is not exactly exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betaln, gammaln
from scipy.stats import beta as beta_dist

from .errors import SeriesTruncationError

DEFAULT_SERIES_CAP = 100_000

# Euler paths are clamped inside the open interval; oracle-only bias.
EULER_CLAMP = 1e-12
# normals euler_endpoints draws per generator call, whole steps at a time
EULER_NORMALS_BLOCK = 1 << 20

_LINEAGE_TAIL = 1e-12
_LINEAGE_ACCURACY = 1e-9


@dataclass(frozen=True)
class WFParams:
    """Parameters (a, b, c) of one Wright-Fisher stick.

    a, b: Beta(a, b) invariant-law parameters, both positive.
    c: time-scale rate per unit time. c = (a + b - 1) / 2 recovers the
       standard parametrisation.

    Requires a + b > 1 so that the boundaries are entrance boundaries and
    the mixture representations of the transition density are valid.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ValueError(f"a, b, c must be positive, got {self}")
        if not self.a + self.b > 1:
            raise ValueError(f"a + b must exceed 1, got a + b = {self.a + self.b}")

    @classmethod
    def standard(cls, a: float, b: float) -> "WFParams":
        """Standard parametrisation, c = (a + b - 1) / 2."""
        return cls(a, b, (a + b - 1.0) / 2.0)

    def standardised_time(self, t: float) -> float:
        """Map elapsed time to the standard clock: 2 c t / (a + b - 1)."""
        return 2.0 * self.c * t / (self.a + self.b - 1.0)


def stationary_mean(p: WFParams) -> float:
    """Mean a / (a + b) of the invariant Beta law."""
    return p.a / (p.a + p.b)


def mean_reversion_rate(p: WFParams) -> float:
    """Exponential decay rate of E[v(t) | v0] toward a / (a + b).

    The drift is linear in v, so the conditional mean solves a linear ODE
    and Corr[v(t), v(t + s)] = exp(-rate * s) at stationarity. The rate is
    c (a + b) / (a + b - 1); for (a, b, c) = (1, theta, theta / 2) it
    reduces to (1 + theta) / 2.
    """
    return p.c * (p.a + p.b) / (p.a + p.b - 1.0)


def invariant_density(v, p: WFParams):
    """Beta(a, b) invariant density at v, for v strictly inside (0, 1)."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0) or np.any(v >= 1.0):
        raise ValueError("v must lie strictly inside (0, 1)")
    out = beta_dist.pdf(v, p.a, p.b)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Negative-Binomial series weights (slice-augmentation machinery)
# ---------------------------------------------------------------------------

def log_nb_weight(m, r, ct):
    """Log of the series weight r_t(m) with size r = a + b and ct = c t.

    Broadcasts over all arguments; 1 - e^{-ct} goes through expm1 so
    small ct keeps its precision.
    """
    return gammaln(r + m) - gammaln(r) - gammaln(m + 1.0) - m * ct \
        + r * np.log(-np.expm1(-ct))


def nb_weight(m, t: float, p: WFParams):
    """Series weight r_t(m): Negative-Binomial pmf at m.

    Size parameter a + b, success parameter e^{-c t}. Evaluated in log
    space through log-gamma so large m stays finite.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    m_arr = np.asarray(m)
    if np.any(m_arr < 0):
        raise ValueError("m must be nonnegative")
    out = np.exp(log_nb_weight(m_arr, p.a + p.b, p.c * t))
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=256)
def _nb_cumulative(r: float, ct: float, cap: int) -> np.ndarray:
    """Cumulative Negative-Binomial weights up to machine-resolution tail.

    Summation stops at the end of a block once the terms are past the
    mode and the tail after the last term m, bounded by the geometric
    series w_m rho / (1 - rho) with rho = (r + m) / (m + 1) e^{-ct} (the
    term ratio, which only falls beyond m), is below 1e-16. A test on
    1 - partial sum cannot serve: rounding can hold it above 1e-15.
    """
    block = 64
    parts = []
    start = 0
    while start <= cap:
        m = np.arange(start, min(start + block, cap + 1), dtype=float)
        w = np.exp(log_nb_weight(m, r, ct))
        parts.append(w)
        rho = (r + m[-1]) / (m[-1] + 1.0) * np.exp(-ct)
        if rho < 1.0 and w[-1] * rho / (1.0 - rho) < 1e-16:
            break
        start += block
        block = min(2 * block, 1 << 16)
    cum = np.cumsum(np.concatenate(parts))
    cum.flags.writeable = False  # shared through the cache
    return cum


def nb_truncation_index(t: float, p: WFParams, tol: float,
                        cap: int = DEFAULT_SERIES_CAP) -> int:
    """Smallest M with tail mass sum_{m > M} r_t(m) < tol.

    Raises SeriesTruncationError when M would exceed cap, which signals
    that t is too small for series evaluation at the requested tolerance.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    cum = _nb_cumulative(p.a + p.b, p.c * t, cap)
    idx = int(np.searchsorted(cum, 1.0 - tol))
    if idx >= len(cum):
        raise SeriesTruncationError(
            f"series truncation index exceeds cap {cap} for t={t}, tol={tol}"
        )
    return idx


def sample_nb(t: float, p: WFParams, rng: np.random.Generator, size=None):
    """Inverse-CDF draw(s) of the Negative-Binomial series index m ~ r_t.

    Inverse-CDF on the cumulative weights keeps draws exact and
    deterministic under a seeded generator.
    """
    cum = _nb_cumulative(p.a + p.b, p.c * t, DEFAULT_SERIES_CAP)
    if 1.0 - cum[-1] > 1e-12:
        raise SeriesTruncationError(
            f"series index distribution not resolved within cap for t={t}"
        )
    return _draw_index(cum, rng, size)


def _draw_index(cum: np.ndarray, rng: np.random.Generator, size):
    """Inverse-CDF draw(s) of a series index from cumulative weights."""
    u = rng.uniform(size=size)
    # u beyond the resolved tail (< 1e-15 mass): clamp to the last index
    out = np.minimum(np.searchsorted(cum, u), len(cum) - 1)
    return int(out) if size is None else out.astype(np.int64)


# ---------------------------------------------------------------------------
# Exact lineage-count weights (death process started from infinity)
# ---------------------------------------------------------------------------

def _lineage_row_double(theta: float, ts: float, m: int):
    """(q_m, max log magnitude) of the alternating series, double precision."""
    total = 0.0
    max_log = -np.inf
    i0 = m
    block = 128
    base = gammaln(m + 1.0) + gammaln(theta + m)
    while True:
        i = np.arange(i0, i0 + block, dtype=float)
        log_mag = (-i * (i + theta - 1.0) * ts / 2.0
                   + np.log(theta + 2.0 * i - 1.0)
                   + gammaln(theta + m + i - 1.0) - gammaln(i - m + 1.0)
                   - base)
        sign = np.where(((i - m) % 2) == 0, 1.0, -1.0)
        total += float(np.sum(sign * np.exp(log_mag)))
        max_log = max(max_log, float(log_mag.max()))
        decreasing = log_mag[-1] < log_mag[0]
        if decreasing and log_mag[-1] < -50.0:
            break
        i0 += block
        if i0 - m > 1 << 20:
            raise SeriesTruncationError(
                f"lineage series for m={m} not converging at ts={ts}")
    return total, max_log


def _lineage_table(row, ts: float, cap: int):
    """All q_m, m = 0, 1, ..., from the per-row evaluator row(m).

    row returns q_m in its own number type (float or mpmath), or None to
    abandon the table. Returns (weights as floats, total in the row's
    number type); weights is None when the table was abandoned.
    """
    weights = []
    total = 0
    m = 0
    negligible = 0
    while True:
        q_m = row(m)
        if q_m is None:
            return None, total
        weights.append(float(q_m))
        total += q_m
        negligible = negligible + 1 if abs(q_m) < 1e-14 else 0
        done = 1 - total < _LINEAGE_TAIL and abs(q_m) < 1e-13
        if done or (negligible >= 4 and total > 0.5):
            return np.array(weights), total
        m += 1
        if m > cap:
            raise SeriesTruncationError(
                f"lineage-count support exceeds cap {cap} at ts={ts}")


def _lineage_table_mp(theta: float, ts: float, cap: int,
                      dps: int) -> np.ndarray:
    """Arbitrary-precision evaluation for small standardised times."""
    import mpmath as mp

    with mp.workdps(dps):
        th = mp.mpf(theta)
        tt = mp.mpf(ts)
        cutoff = mp.mpf(10) ** (-(dps - 8))
        terms_used = 0

        def row(m):
            nonlocal terms_used
            base = mp.loggamma(m + 1) + mp.loggamma(th + m)
            q_m = mp.mpf(0)
            i = m
            prev_mag = None
            while True:
                log_mag = (-i * (i + th - 1) * tt / 2
                           + mp.log(th + 2 * i - 1)
                           + mp.loggamma(th + m + i - 1)
                           - mp.loggamma(i - m + 1) - base)
                mag = mp.e ** log_mag
                q_m += mag if ((i - m) % 2 == 0) else -mag
                terms_used += 1
                if terms_used > 400_000:
                    raise SeriesTruncationError(
                        f"t too small for series evaluation at ts={ts}")
                if prev_mag is not None and mag < prev_mag and mag < cutoff:
                    return q_m
                prev_mag = mag
                i += 1

        return _lineage_table(row, ts, cap)[0]


@lru_cache(maxsize=128)
def _lineage_cumulative(theta: float, ts: float,
                        cap: int = DEFAULT_SERIES_CAP) -> np.ndarray:
    """Cached cumulative lineage-count weights at standardised time ts.

    Resolves the distribution to tail mass 1e-12 and absolute weight
    accuracy near 1e-9, escalating to arbitrary precision when double
    arithmetic would lose the alternating series to cancellation.
    """
    if not ts > 0:
        raise ValueError("standardised time must be positive")
    err = 0.0

    def row_double(m):
        # None once double arithmetic loses the series to cancellation
        nonlocal err
        q_m, max_log = _lineage_row_double(theta, ts, m)
        err += 4.0e-16 * np.exp(min(max_log, 700.0))
        return q_m if np.isfinite(q_m) and not err > 1e-8 else None

    try:
        weights, total = _lineage_table(row_double, ts, cap)
    except (OverflowError, FloatingPointError):
        weights, total = None, 0.0
    if weights is not None and (err > _LINEAGE_ACCURACY
                                or abs(total - 1.0) > 1e-8
                                or np.any(weights < -1e-9)):
        weights = None
    if weights is None:
        # probe the worst alternating-term magnitude to size the precision,
        # then escalate until the mass diagnostic passes
        # probe range tracks the lineage-count support, about 2/ts + slack
        mmax_probe = int(2.4 / ts) + 48
        max_log = 0.0
        for m in range(0, mmax_probe, max(1, mmax_probe // 40)):
            max_log = max(max_log, _lineage_row_double(theta, ts, m)[1])
        dps = max(40, 25 + int(max_log / 2.302585))
        while True:
            if dps > 320:
                raise SeriesTruncationError(
                    f"t too small for stable series evaluation at ts={ts}")
            try:
                weights = _lineage_table_mp(theta, ts, cap, dps)
            except SeriesTruncationError:
                weights = None
            if weights is not None and abs(weights.sum() - 1.0) < 1e-9 \
                    and not np.any(weights < -1e-9):
                break
            dps = int(dps * 1.6)
    weights = np.clip(weights, 0.0, None)
    weights /= weights.sum()
    cum = np.cumsum(weights)
    cum.flags.writeable = False
    return cum


def lineage_weights(t: float, p: WFParams,
                    tol: float = _LINEAGE_TAIL) -> np.ndarray:
    """Exact series weights: law of the ancestral lineage count.

    Entry m is the probability that m lineages survive after elapsed time
    t; the array is truncated once the remaining tail is below tol.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    cum = _lineage_cumulative(p.a + p.b, p.standardised_time(t))
    upto = int(np.searchsorted(cum, 1.0 - tol)) + 1
    out = np.diff(np.concatenate([[0.0], cum[:upto]]))
    return out


# ---------------------------------------------------------------------------
# Beta-Binomial mixture components shared by both weight systems
# ---------------------------------------------------------------------------

def transition_mixture_component(v1, m: int, v0: float, p: WFParams):
    """Beta-Binomial mixture component D(v1 | m, v0).

    A density in v1 for every (m, v0): the k-th term weights
    Beta(v1 | a + k, b + m - k) by Bin(k | m, v0).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    v1 = _check_transition_args(v1, v0)
    log_weights = np.full(m + 1, -np.inf)
    log_weights[m] = 0.0
    return _mixture_density(log_weights, v0, v1, p)


def _mixture_density(log_weights: np.ndarray, v0: float, v1: np.ndarray,
                     p: WFParams):
    """sum_m w_m D(v1 | m, v0) from per-index log weights.

    Indices whose log weight is -inf are skipped. v1 is a checked array;
    a 0-d v1 gives a float.
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
        log_bin = (
            gammaln(pair_m + 1.0) - gammaln(pair_k + 1.0)
            - gammaln(pair_m - pair_k + 1.0)
            + pair_k * np.log(v0) + (pair_m - pair_k) * np.log1p(-v0)
        )
    a1 = p.a + pair_k
    b1 = p.b + pair_m - pair_k
    log_w = pair_logw + log_bin - betaln(a1, b1)

    grid = np.atleast_1d(v1)
    log_v1 = np.log(grid)
    log_1mv1 = np.log1p(-grid)
    dens = np.zeros_like(grid)
    chunk = max(1, (1 << 22) // max(1, grid.size))
    with np.errstate(invalid="ignore"):
        for lo in range(0, len(pair_m), chunk):
            sl = slice(lo, lo + chunk)
            contrib = np.exp(
                log_w[sl][:, None]
                + (a1[sl] - 1.0)[:, None] * log_v1[None, :]
                + (b1[sl] - 1.0)[:, None] * log_1mv1[None, :]
            )
            dens += np.nansum(contrib, axis=0)
    return float(dens[0]) if v1.ndim == 0 else dens


def _check_transition_args(v1, v0):
    if not (0.0 <= v0 <= 1.0):
        raise ValueError("v0 must lie in [0, 1]")
    v1 = np.asarray(v1, dtype=float)
    if np.any(v1 <= 0.0) or np.any(v1 >= 1.0):
        raise ValueError("v1 must lie strictly inside (0, 1)")
    return v1


def transition_density(v1, v0: float, t: float, p: WFParams,
                       tol: float = 1e-10):
    """Exact transition density p(v1 | v0, t) of the diffusion.

    Uses the lineage-count weights, truncated once their remaining tail
    is below tol, so the result underestimates the density by at most the
    neglected mixture mass and integrates to one within tol. Raises
    SeriesTruncationError when t is too small for the series to be
    evaluated stably at the requested tolerance.

    v1 may be an array; v0 and t are scalars.
    """
    v1 = _check_transition_args(v1, v0)
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    weights = lineage_weights(t, p, tol=min(tol, _LINEAGE_TAIL * 10))
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    return _mixture_density(log_weights, v0, v1, p)


def series_transition_density(v1, v0: float, t: float, p: WFParams,
                              tol: float = 1e-10):
    """Transition density of the Negative-Binomial series model.

    This is the kernel the slice-augmented Gibbs sampler targets between
    consecutive observation times: same Beta-Binomial mixture as the
    exact density but with r_t(m) weights. It is truncated at the
    smallest M with tail mass below tol and integrates to one within tol.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    v1 = _check_transition_args(v1, v0)
    M = nb_truncation_index(t, p, tol)
    log_weights = log_nb_weight(np.arange(M + 1), p.a + p.b, p.c * t)
    return _mixture_density(log_weights, v0, v1, p)


def sample_transition(v0, t: float, p: WFParams, rng: np.random.Generator,
                      size=None):
    """Exact draw(s) from the diffusion transition law after time t.

    Composition sampling: m from the lineage-count law (inverse CDF),
    k ~ Bin(m, v0), v1 ~ Beta(a + k, b + m - k). v0 may be an array, in
    which case one draw is produced per entry and size must be None.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    v0_arr = np.asarray(v0, dtype=float)
    if np.any(v0_arr < 0.0) or np.any(v0_arr > 1.0):
        raise ValueError("v0 must lie in [0, 1]")
    if v0_arr.ndim == 0:
        n = size
    else:
        if size is not None:
            raise ValueError("size must be None when v0 is an array")
        n = v0_arr.shape
    m = _draw_index(_lineage_cumulative(p.a + p.b, p.standardised_time(t)),
                    rng, n)
    m_arr = np.asarray(m)
    k = rng.binomial(m_arr, v0_arr)
    v1 = rng.beta(p.a + k, p.b + m_arr - k)
    if v0_arr.ndim == 0 and size is None:
        return float(v1)
    return v1


# ---------------------------------------------------------------------------
# Euler-Maruyama reference simulator (oracle only)
# ---------------------------------------------------------------------------

def _euler_setup(v0: float, span: float, step: float, p: WFParams):
    """Checks and constants of an Euler scheme run for time span.

    Returns (n_steps, drift_scale, diff_scale, sqrt_dt, start): the
    generalised drift is drift_scale (a - (a + b) v), the squared
    diffusion diff_scale v (1 - v), and start is v0 clamped. All but
    n_steps are Python floats.
    """
    if not (0.0 <= v0 <= 1.0):
        raise ValueError("v0 must lie in [0, 1]")
    if not (step > 0 and span > 0 and step <= span):
        raise ValueError("need 0 < step <= span")
    denom = p.a + p.b - 1.0
    return (int(round(span / step)), float(p.c / denom),
            float(2.0 * p.c / denom), math.sqrt(step),
            float(min(max(v0, EULER_CLAMP), 1.0 - EULER_CLAMP)))


def euler_path(v0: float, horizon: float, step: float, p: WFParams,
               rng: np.random.Generator, noise: bool = True):
    """Euler-Maruyama path on [0, horizon] with the generalised drift.

    Returns (times, values). Values are clamped to
    [EULER_CLAMP, 1 - EULER_CLAMP] after every step; the clamp is a
    documented bias of this reference simulator, which serves only as an
    independent oracle and never feeds inference. With noise=False the
    path solves the deterministic relaxation toward a / (a + b).
    """
    n_steps, drift_scale, diff_scale, sqrt_dt, v = _euler_setup(
        v0, horizon, step, p)
    z = rng.standard_normal(n_steps).tolist() if noise else [0.0] * n_steps
    a, ab, step = float(p.a), float(p.a + p.b), float(step)
    lo, hi = EULER_CLAMP, 1.0 - EULER_CLAMP
    values = [v]
    for zi in z:
        v = v + drift_scale * (a - ab * v) * step \
            + math.sqrt(diff_scale * v * (1.0 - v)) * sqrt_dt * zi
        if v < lo:
            v = lo
        elif v > hi:
            v = hi
        values.append(v)
    times = np.arange(n_steps + 1) * step
    return times, np.array(values)


def euler_endpoints(v0: float, t: float, step: float, p: WFParams,
                    rng: np.random.Generator, size: int) -> np.ndarray:
    """Endpoints at time t of `size` independent Euler-Maruyama paths.

    Vectorised across paths; same scheme, clamp and arithmetic as
    euler_path. The normals come EULER_NORMALS_BLOCK at a time, one row
    of `size` per step, which is the stream of one call per step.
    """
    n_steps, drift_scale, diff_scale, sqrt_dt, start = _euler_setup(
        v0, t, step, p)
    ab = p.a + p.b
    v = np.full(size, start)
    drift = np.empty(size)
    diffusion = np.empty(size)
    rows = max(1, EULER_NORMALS_BLOCK // max(size, 1))
    for first in range(0, n_steps, rows):
        for z in rng.standard_normal((min(rows, n_steps - first), size)):
            # v + drift_scale (a - ab v) step
            #   + sqrt(diff_scale v (1 - v)) sqrt_dt z, in euler_path's order
            np.multiply(ab, v, out=drift)
            np.subtract(p.a, drift, out=drift)
            np.multiply(drift_scale, drift, out=drift)
            np.multiply(drift, step, out=drift)
            np.add(v, drift, out=drift)
            np.multiply(diff_scale, v, out=diffusion)
            np.subtract(1.0, v, out=v)
            np.multiply(diffusion, v, out=diffusion)
            np.sqrt(diffusion, out=diffusion)
            np.multiply(diffusion, sqrt_dt, out=diffusion)
            np.multiply(diffusion, z, out=diffusion)
            np.add(drift, diffusion, out=v)
            np.clip(v, EULER_CLAMP, 1.0 - EULER_CLAMP, out=v)
    return v
