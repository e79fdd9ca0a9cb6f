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
  evaluated with cancellation-error control in the standard library's
  decimal arithmetic, at 40 or more digits.

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
from array import array
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from functools import lru_cache
from itertools import islice

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .errors import SeriesTruncationError

DEFAULT_SERIES_CAP = 100_000

# Euler paths are clamped inside the open interval; oracle-only bias.
EULER_CLAMP = 1e-12
# normals euler_endpoints draws per generator call, whole steps at a time,
# into one of its two buffers while the paths step through the other
EULER_NORMALS_BLOCK = 1 << 20
# normals euler_path draws per generator call, the stream of one call
EULER_PATH_BLOCK = 1 << 16

_LINEAGE_TAIL = 1e-12
_LINEAGE_ACCURACY = 1e-9
# largest lineage-series term: e^700 needs more digits than the 320-digit
# cap
_LINEAGE_TERM_MAX = math.exp(700.0)

# largest M |d log x| and M |d log(1 - x)| across one block of nodes in
# the Beta-Binomial mixture evaluator: a term then stays within e^300 of
# its value at the block's centre, so none overflows and no node loses
# its own largest term to underflow
_BLOCK_LOG_SPAN = 300.0


def _positive(name: str, x) -> float:
    """float(x) if x is positive and finite, else ValueError naming it."""
    if not 0 < x < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return float(x)


@dataclass(frozen=True)
class WFParams:
    """Parameters (a, b, c) of one Wright-Fisher stick.

    a, b: Beta(a, b) invariant-law parameters, both positive and finite.
    c: time-scale rate per unit time, positive and finite. c = (a + b - 1)
       / 2 recovers the standard parametrisation.

    Requires a + b > 1 so that the boundaries are entrance boundaries and
    the mixture representations of the transition density are valid.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            _positive(name, getattr(self, name))
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


# ---------------------------------------------------------------------------
# Negative-Binomial series weights (slice-augmentation machinery)
# ---------------------------------------------------------------------------

def log_nb_weight(m, r, ct):
    """Log of the series weight r_t(m) with size r = a + b and ct = c t.

    Broadcasts over all arguments; 1 - e^{-ct} goes through expm1 so
    small ct keeps its precision.
    """
    return _log_nb_from_coef(gammaln(r + m) - gammaln(r) - gammaln(m + 1.0),
                             m, r, ct)


def _log_nb_from_coef(log_coef, m, r, ct):
    """log r_t(m) from its c-free part log_coef = log Gamma(r + m) -
    log Gamma(r) - log m!, in log_nb_weight's operation order.

    A caller that varies only ct caches log_coef and evaluates no
    log-gamma. A product m ct past double range is -inf in the weight,
    its exact value: e^{-ct} = 0 puts all mass on m = 0. At ct = inf the
    m = 0 product is 0, its limit, where 0 * inf would be NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (log_coef - np.where(m == 0, 0.0, m * ct)
                + r * np.log(-np.expm1(-ct)))


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


# tables in each series cache, _nb_cumulative and _lineage_cumulative: well
# above a Pitman-Yor state's stick count and a grid's few hundred gaps
_SERIES_CACHE_SIZE = 1024


@lru_cache(maxsize=256)  # holds every run's blocks in a Pitman-Yor growth
def _nb_coef_block(r: float, start: int, stop: int):
    """(m, log Gamma(r + m) - log Gamma(r) - log m!) for m in [start,
    stop): the c-free part of the log weights, shared by every ct."""
    m = np.arange(start, stop, dtype=float)
    return m, gammaln(r + m) - gammaln(r) - gammaln(m + 1.0)


@lru_cache(maxsize=_SERIES_CACHE_SIZE)
def _nb_cumulative(r: float, ct: float) -> np.ndarray:
    """Cumulative Negative-Binomial weights at size r and ct, summed over
    blocks of 64, 128, ... indices; cached.

    Summation stops at the end of a block once the terms are past the
    mode and the tail after the last term m, bounded by the geometric
    series w_m rho / (1 - rho) with rho = (r + m) / (m + 1) e^{-ct} (the
    term ratio, which only falls beyond m), is below 1e-16. A test on
    1 - partial sum cannot serve: rounding can hold it above 1e-15. Each
    weight is the one log_nb_weight gives. SeriesTruncationError when
    log Gamma(r + m) leaves double range.
    """
    if not _nb_size_in_range(r):
        raise SeriesTruncationError(
            f"a + b = {r:g} leaves double range: log Gamma(a + b) overflows "
            "in the series weights")
    parts, start, size = [], 0, 64
    while start <= DEFAULT_SERIES_CAP:
        m, coef = _nb_coef_block(
            r, start, min(start + size, DEFAULT_SERIES_CAP + 1))
        w = np.exp(_log_nb_from_coef(coef, m, r, ct))
        parts.append(w)
        rho = (r + m[-1]) / (m[-1] + 1.0) * np.exp(-ct)
        if rho < 1.0 and w[-1] * rho / (1.0 - rho) < 1e-16:
            break
        start += size
        size = min(2 * size, 1 << 16)
    cum = np.cumsum(np.concatenate(parts))
    cum.flags.writeable = False  # shared through the cache
    return cum


def _nb_size_in_range(r: float) -> bool:
    """Whether log Gamma(r + m) is finite at every index m up to the cap,
    so the series weights subtract no inf from inf."""
    return bool(np.isfinite(gammaln(r + DEFAULT_SERIES_CAP)))


def nb_truncation_index(t: float, p: WFParams, tol: float) -> int:
    """Smallest M with tail mass sum_{m > M} r_t(m) < tol.

    Raises SeriesTruncationError when M would exceed DEFAULT_SERIES_CAP,
    which signals that t is too small for series evaluation at the
    requested tolerance.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    cum = _nb_cumulative(p.a + p.b, p.c * t)
    idx = int(np.searchsorted(cum, 1.0 - tol))
    if idx >= len(cum):
        raise SeriesTruncationError(
            f"series truncation index exceeds cap {DEFAULT_SERIES_CAP} for "
            f"t={t}, tol={tol}")
    return idx


def sample_nb(t: float, p: WFParams, rng: np.random.Generator, size):
    """Inverse-CDF draws of the Negative-Binomial series index m ~ r_t
    from its cached table; SeriesTruncationError if that is unresolved."""
    cum = _nb_cumulative(p.a + p.b, p.c * t)
    if not _nb_resolved(cum):
        raise SeriesTruncationError(
            f"series index distribution not resolved within cap for t={t}")
    return _draw_index(cum, rng, size)


def _nb_resolved(cum: np.ndarray) -> bool:
    """Whether the cumulative series weights cum sum to within 1e-12 of
    one inside DEFAULT_SERIES_CAP terms; a NaN sum is not refused."""
    return not 1.0 - cum[-1] > 1e-12


def _draw_index(cum: np.ndarray, rng: np.random.Generator, size):
    """Inverse-CDF draws of a series index from cumulative weights.

    rng.random(size) is rng.uniform(size=size) to the bit (uniform
    returns 0 + 1 x of the same double) with fewer argument checks.
    """
    u = rng.random(size)
    # u beyond the resolved tail (< 1e-15 mass): clamp to the last index
    return np.minimum(cum.searchsorted(u), len(cum) - 1).astype(
        np.int64, copy=False)


# ---------------------------------------------------------------------------
# Exact lineage-count weights (death process started from infinity)
# ---------------------------------------------------------------------------

def _decimal_lineage_rows(theta: float, ts: float, prec: int):
    """(q_m, log of its largest term) of the alternating lineage series

        q_m = sum_{i >= m} (-1)^(i-m) (theta + 2i - 1) Gamma(theta + m + i - 1)
              / (m! (i - m)! Gamma(theta + m)) e^{-i (i + theta - 1) ts / 2}

    (Griffiths 1980) for m = 0, 1, ... in decimal arithmetic, with q_m as
    a Decimal; the caller makes the prec-digit context current.

    Each later term comes from the one before by their ratio, which falls
    with i, so a row ends at its first falling term below 10^(8 - prec).
    decimal has no log-gamma, so term m is the exact product

        prod_{k<m} (theta + m + k) / (k + 1) e^{-m (m + theta - 1) ts / 2},

    carried from row to row. The step from term i to i + 1 is
    r_i (theta + m + i - 1) / (i - m + 1) with
    r_i = e^{-(theta + 2i) ts / 2} (theta + 2i + 1) / (theta + 2i - 1),
    which no row changes, so each r_i is computed once per table.
    """
    th, t = Decimal(theta), Decimal(ts)
    cutoff, term_max = Decimal(10) ** (8 - prec), Decimal(_LINEAGE_TERM_MAX)
    decay, step_decay = (-th * t / 2).exp(), (-t).exp()
    decays, ratios = [], []  # e^{-(theta + 2i) ts / 2} and r_i by i
    first, m = Decimal(1), 0
    while True:
        mag, num = first, th + (2 * m - 1)
        q_m, peak, i = 0, 0, m
        while True:
            if (i - m) & 1:
                q_m -= mag
            else:
                q_m += mag
            if mag > peak:
                if mag > term_max:
                    raise SeriesTruncationError(
                        f"t too small for stable series evaluation at ts={ts}")
                peak = mag
            elif mag < cutoff:
                break
            if i == len(ratios):
                decays.append(decay)
                ratios.append(decay * (th + (2 * i + 1)) / (th + (2 * i - 1)))
                decay *= step_decay
            mag = mag * ratios[i] * num / (i - m + 1)
            num += 1
            i += 1
            if i - m > 1 << 20:
                raise SeriesTruncationError(
                    f"lineage series for m={m} not converging at ts={ts}")
        # the guard bounds the peak above; 0.0 only past double range below
        peak = float(peak)
        yield q_m, (math.log(peak) if peak else -math.inf)
        first = (first * decays[m] * (th + 2 * m) * (th + (2 * m + 1))
                 / ((th + m) * (m + 1)))
        m += 1


def _lineage_context(digits: int) -> Context:
    """The decimal context of a digits-digit lineage table: exponents at
    their extremes, so that no term over- or underflows."""
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _lineage_table(theta: float, ts: float, ctx: Context):
    """(q_m for m = 0, 1, ... as floats, cancellation bound) from
    _decimal_lineage_rows under the decimal context ctx (see
    _lineage_context).

    Each row adds 4 units of its precision, 4 10^-prec, times its largest
    term to the bound. The table ends early once the bound passes 1e-8,
    else once the tail is below 1e-12 and q_m below 1e-13, or after four
    rows below 1e-14 once the mass passes 1/2.
    """
    unit = 4 * 10.0 ** -ctx.prec
    weights, total, err, negligible = [], 0, 0.0, 0
    with localcontext(ctx):
        for q_m, max_log in islice(
                _decimal_lineage_rows(theta, ts, ctx.prec),
                DEFAULT_SERIES_CAP + 1):
            weights.append(float(q_m))
            total += q_m
            err += unit * math.exp(max_log)
            negligible = negligible + 1 if abs(q_m) < 1e-14 else 0
            done = 1 - total < _LINEAGE_TAIL and abs(q_m) < 1e-13
            if err > 1e-8 or done or (negligible >= 4 and total > 0.5):
                return np.array(weights), err
    raise SeriesTruncationError(
        f"lineage-count support exceeds cap {DEFAULT_SERIES_CAP} at ts={ts}")


def _lineage_peak_log(theta: float, ts: float) -> float:
    """Log of the largest lineage-series term on the rows m = 0, s, 2s, ...
    below int(2.4 / ts) + 48, about 2 / ts plus slack, which spans the
    support; s is a 40th of that bound. Each term is read from its closed
    form

        log(theta + 2i - 1) + log Gamma(theta + m + i - 1) - log m!
        - log (i - m)! - log Gamma(theta + m) - i (i + theta - 1) ts / 2.

    The step ratio from term i to i + 1 falls with i and is below 1 for
    every i - m past 4 / ts, so each row peaks at its first i whose ratio
    is below 1, found by bisection in i - m.
    """
    # the bounds keep every index an exact float; below ts 1e-15, where
    # they bind, the largest term is far past _LINEAGE_TERM_MAX
    probe = int(min(2.4 / ts, 2.0 ** 52)) + 48
    m = np.arange(0, probe, max(1, probe // 40), dtype=float)
    lo = np.zeros_like(m)
    hi = np.full_like(m, int(min(4 / ts, 2.0 ** 52)) + 2)
    while np.any(lo < hi):
        j = (lo + hi) // 2
        i = m + j
        rises = (np.log((theta + 2 * i + 1) / (theta + 2 * i - 1)
                        * (theta + m + i - 1) / (j + 1))
                 >= (theta + 2 * i) * ts / 2)
        lo, hi = np.where(rises, j + 1, lo), np.where(rises, hi, j)
    i = m + lo
    return float(np.max(
        np.log(theta + 2 * i - 1) + gammaln(theta + m + i - 1)
        - gammaln(m + 1) - gammaln(lo + 1) - gammaln(theta + m)
        - i * (i + theta - 1) * ts / 2))


@lru_cache(maxsize=_SERIES_CACHE_SIZE)
def _lineage_cumulative(theta: float, ts: float) -> np.ndarray:
    """Cached cumulative lineage-count weights at standardised time ts.

    Resolves the distribution to tail mass 1e-12 and absolute weight
    accuracy near 1e-9 in decimal arithmetic. The table starts at 40
    digits, or at 25 more than the largest term needs
    (_lineage_peak_log), and its precision rises 1.6-fold until the mass
    diagnostic passes, up to 320 digits.
    """
    _positive("standardised time", ts)
    dps = max(40, 25 + int(_lineage_peak_log(theta, ts) / 2.302585))
    while True:
        if dps > 320:
            raise SeriesTruncationError(
                f"t too small for stable series evaluation at ts={ts}")
        try:
            weights, err = _lineage_table(theta, ts, _lineage_context(dps))
            if (err <= _LINEAGE_ACCURACY and abs(weights.sum() - 1.0) <= 1e-9
                    and not np.any(weights < -1e-9)):
                break
        except SeriesTruncationError:
            pass
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
    return np.diff(cum[:upto], prepend=0.0)


# ---------------------------------------------------------------------------
# Beta-Binomial mixture components shared by both weight systems
# ---------------------------------------------------------------------------

def _mixture_density(log_weights: np.ndarray, v0: float, v1: np.ndarray,
                     p: WFParams):
    """sum_m w_m D(v1 | m, v0) from per-index log weights.

    With x = v1, y = 1 - v1 and j = m - k, the pair (k, j) adds
    exp(L[k, j]) x^(a+k-1) y^(b+j-1), where

        L[k, j] = log w_{k+j} + log C(k+j, k) + k log v0 + j log(1 - v0)
                  - log B(a + k, b + j),

    so the density is x^(a-1) y^(b-1) sum_k x^k (exp(L) @ Y)[k] with
    Y[j] = y^j: one matrix product per block of nodes. The sorted nodes
    are cut into blocks across which M |d log x| and M |d log y| stay
    within _BLOCK_LOG_SPAN (M the largest index); each block measures its
    powers from its centre node and shifts L by the largest term there, so
    every term of every node stays inside double range. A single global
    shift cannot: at large M it loses the nodes near 0 and 1.

    Indices whose log weight is -inf add nothing. v1 is a checked array;
    a 0-d v1 gives a float.
    """
    m_max = int(np.flatnonzero(np.isfinite(log_weights))[-1])
    n = np.arange(m_max + 1)
    # L[k, j] = row[k] + col[j] + diag[k + j], log B split into log-gammas
    diag = np.full(2 * m_max + 1, -np.inf)
    diag[:m_max + 1] = (log_weights[:m_max + 1] + gammaln(n + 1.0)
                        + gammaln(p.a + p.b + n))
    row = xlogy(n, v0) - gammaln(n + 1.0) - gammaln(p.a + n)
    col = xlog1py(n, -v0) - gammaln(n + 1.0) - gammaln(p.b + n)
    log_pair = row[:, None] + col[None, :] + diag[n[:, None] + n[None, :]]

    grid = v1.ravel()
    order = np.argsort(grid)
    log_x = np.log(grid[order])
    log_y = np.log1p(-grid[order])
    dens = np.empty(grid.size)
    span = _BLOCK_LOG_SPAN / max(m_max, 1)
    lo = 0
    while lo < grid.size:
        # log x rises and log y falls along the sorted nodes
        hi = min(np.searchsorted(log_x, log_x[lo] + span, side="right"),
                 np.searchsorted(-log_y, span - log_y[lo], side="right"))
        mid = (lo + hi - 1) // 2
        block = slice(lo, hi)
        centred = (log_pair + n[:, None] * log_x[mid]
                   + n[None, :] * log_y[mid])
        shift = centred.max()
        x_pow = np.exp(np.outer(n, log_x[block] - log_x[mid]))
        y_pow = np.exp(np.outer(n, log_y[block] - log_y[mid]))
        total = np.einsum("kn,kn->n", x_pow, np.exp(centred - shift) @ y_pow)
        dens[order[block]] = np.exp(shift + (p.a - 1.0) * log_x[block]
                                    + (p.b - 1.0) * log_y[block]
                                    + np.log(total))
        lo = hi
    return float(dens[0]) if v1.ndim == 0 else dens.reshape(v1.shape)


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


def sample_transition(v0: np.ndarray, t: float, p: WFParams,
                      rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the diffusion transition law after time t, one
    per entry of the array of starts v0.

    Composition sampling: m from the lineage-count law (inverse CDF),
    k ~ Bin(m, v0), v1 ~ Beta(a + k, b + m - k).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    v0 = np.asarray(v0, dtype=float)
    if np.any(v0 < 0.0) or np.any(v0 > 1.0):
        raise ValueError("v0 must lie in [0, 1]")
    m = _draw_index(_lineage_cumulative(p.a + p.b, p.standardised_time(t)),
                    rng, v0.shape)
    k = rng.binomial(m, v0)
    return rng.beta(p.a + k, p.b + m - k)


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

    Returns the values at times 0, step, 2 step, ...,
    round(horizon / step) step, the first of them the clamped v0. Values
    are clamped to
    [EULER_CLAMP, 1 - EULER_CLAMP] after every step; the clamp is a
    documented bias of this reference simulator, which serves only as an
    independent oracle and never feeds inference. With noise=False the
    path solves the deterministic relaxation toward a / (a + b).
    """
    n_steps, drift_scale, diff_scale, sqrt_dt, v = _euler_setup(
        v0, horizon, step, p)
    a, ab, step = float(p.a), float(p.a + p.b), float(step)
    lo, hi = EULER_CLAMP, 1.0 - EULER_CLAMP
    values = array("d", [v])
    append = values.append
    for first in range(0, n_steps, EULER_PATH_BLOCK):
        count = min(EULER_PATH_BLOCK, n_steps - first)
        z = rng.standard_normal(count).tolist() if noise else [0.0] * count
        for zi in z:
            v = v + drift_scale * (a - ab * v) * step \
                + math.sqrt(diff_scale * v * (1.0 - v)) * sqrt_dt * zi
            if v < lo:
                v = lo
            elif v > hi:
                v = hi
            append(v)
    return np.frombuffer(values, dtype=float)


def euler_endpoints(v0: float, t: float, step: float, p: WFParams,
                    rng: np.random.Generator, size: int) -> np.ndarray:
    """Endpoints at time t of `size` independent Euler-Maruyama paths.

    Vectorised across paths; same scheme, clamp and arithmetic as
    euler_path. The normals come EULER_NORMALS_BLOCK at a time, one row
    of `size` per step, which is the stream of one call per step. Block
    i + 1 is drawn on a second thread while the paths step through
    block i; blocks are drawn in order and none past the last step, so
    the generator ends where one call per step leaves it.
    """
    n_steps, drift_scale, diff_scale, sqrt_dt, start = _euler_setup(
        v0, t, step, p)
    ab = p.a + p.b
    v = np.full(size, start)
    drift = np.empty(size)
    diffusion = np.empty(size)
    rows = min(n_steps, max(1, EULER_NORMALS_BLOCK // max(size, 1)))
    buffers = (np.empty((rows, size)), np.empty((rows, size)))

    def block(first: int) -> np.ndarray:
        return buffers[first // rows % 2][:min(rows, n_steps - first)]

    # imported here: only the Euler oracle needs a worker thread
    from concurrent.futures import ThreadPoolExecutor

    rng.standard_normal(out=block(0))
    with ThreadPoolExecutor(max_workers=1) as pool:
        for first in range(0, n_steps, rows):
            # the generator releases the GIL while it fills the buffer
            ahead = None
            if first + rows < n_steps:
                ahead = pool.submit(rng.standard_normal,
                                    out=block(first + rows))
            try:
                for z in block(first):
                    # v + drift_scale (a - ab v) step
                    #   + sqrt(diff_scale v (1 - v)) sqrt_dt z, in
                    #   euler_path's order
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
            finally:
                if ahead is not None:
                    ahead.result()
    return v
