"""Stick-breaking random measures with Wright-Fisher dynamics.

A random probability measure is built as P_t = sum_j w_j(t) delta_{x_j}
with fixed atoms x_j and weights obtained by stick-breaking,

    w_1(t) = v_1(t),   w_j(t) = v_j(t) prod_{i<j} (1 - v_i(t)),

where each stick v_j evolves as an independent Wright-Fisher diffusion
with invariant law Beta(a_j, b_j). The Dirichlet-process case takes
a_j = 1, b_j = theta for every stick; the Pitman-Yor case takes
a_j = 1 - sigma, b_j = theta + j sigma. Because each stick is stationary,
the measure is marginally a Dirichlet (or GEM) process at every time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import wf
from .errors import NumericalError
from .wf import WFParams

DEFAULT_TRUNC_TOL = 1e-4
MAX_STICKS = 100_000
# clamp for stick draws, which must stay strictly inside (0, 1)
OPEN_UNIT = (1e-300, float(np.nextafter(1.0, 0.0)))


@dataclass(frozen=True)
class StickConfig:
    """Stick law plus the time-scale rate c shared by the weight processes.

    kind is one of "dp", "pitman_yor" or "gem". Use the constructors
    dp(), pitman_yor() and general_gem() rather than filling fields by
    hand; they validate the parameter ranges, in particular that every
    implied stick satisfies a_j + b_j > 1.
    """

    kind: str
    theta: float | None = None
    sigma: float | None = None
    pairs: tuple[tuple[float, float], ...] | None = None
    c: float = 1.0

    @classmethod
    def dp(cls, theta: float, c: float | None = None) -> "StickConfig":
        """Dirichlet-process sticks, Beta(1, theta) marginals.

        c defaults to theta / 2, the standard parametrisation in which
        each stick decorrelates at rate (1 + theta) / 2.
        """
        if not theta > 0:
            raise ValueError("theta must be positive")
        if c is None:
            c = theta / 2.0
        return cls(kind="dp", theta=float(theta), c=_check_rate(c))

    @classmethod
    def pitman_yor(cls, theta: float, sigma: float,
                   c: float = 1.0) -> "StickConfig":
        """Pitman-Yor sticks, Beta(1 - sigma, theta + j sigma) marginals."""
        if not (0.0 <= sigma < 1.0):
            raise ValueError("sigma must lie in [0, 1)")
        if not theta > -sigma:
            raise ValueError("theta must exceed -sigma")
        # stick 1 needs a_1 + b_1 = 1 + theta > 1; later sticks only grow
        if not theta > 0:
            raise ValueError(
                "theta must be positive so every stick has a_j + b_j > 1"
            )
        return cls(kind="pitman_yor", theta=float(theta),
                   sigma=float(sigma), c=_check_rate(c))

    @classmethod
    def general_gem(cls, pairs: Sequence[tuple[float, float]],
                    c: float = 1.0) -> "StickConfig":
        """Explicit per-stick (a_j, b_j) list; the last pair repeats beyond it.

        Weights sum to one only when sum_j log(1 + a_j / b_j) diverges.
        That cannot be verified on a finite prefix, so a decreasing prefix
        only triggers a warning.
        """
        pairs = tuple((float(a), float(b)) for a, b in pairs)
        if not pairs:
            raise ValueError("pairs must be nonempty")
        for j, (a, b) in enumerate(pairs, start=1):
            if not (a > 0 and b > 0 and a + b > 1):
                raise ValueError(
                    f"stick {j}: need a > 0, b > 0 and a + b > 1, got {(a, b)}"
                )
        terms = [np.log1p(a / b) for a, b in pairs]
        if len(terms) > 1 and all(t2 < t1 for t1, t2 in zip(terms, terms[1:])):
            warnings.warn(
                "stick terms log(1 + a_j/b_j) decrease along the prefix; "
                "divergence of their sum cannot be verified, weights may "
                "not sum to one",
                stacklevel=2,
            )
        return cls(kind="gem", pairs=pairs, c=_check_rate(c))

    def params(self, m: int, theta: float | None = None,
               c: float | None = None):
        """(a, b, c) arrays for the first m sticks.

        theta and c default to the configured values; the sampler passes
        its current chain state instead. Explicit-pair sticks ignore
        theta, and their last pair repeats beyond the list.
        """
        theta = self.theta if theta is None else theta
        c = self.c if c is None else c
        if self.kind == "dp":
            a = np.ones(m)
            b = np.full(m, theta)
        elif self.kind == "pitman_yor":
            a = np.full(m, 1.0 - self.sigma)
            b = theta + self.sigma * np.arange(1, m + 1)
        else:
            idx = np.minimum(np.arange(m), len(self.pairs) - 1)
            a = np.array([self.pairs[i][0] for i in idx])
            b = np.array([self.pairs[i][1] for i in idx])
        return a, b, np.full(m, c)


def _check_rate(c) -> float:
    if not c > 0:
        raise ValueError("c must be positive")
    return float(c)


def stick_runs(a, b, c) -> list[tuple[int, int, WFParams]]:
    """(lo, hi, params) for each maximal run of sticks sharing (a, b, c).

    Draws go one run at a time: a Dirichlet process is one run, and
    Pitman-Yor with sigma > 0 one run per stick.
    """
    triples = list(zip(a.tolist(), b.tolist(), c.tolist()))
    starts = [j for j in range(len(triples))
              if j == 0 or triples[j] != triples[j - 1]]
    return [(lo, hi, WFParams(*triples[lo]))
            for lo, hi in zip(starts, starts[1:] + [len(triples)])]


class MeasureProbability(NamedTuple):
    """Measure of a set under a truncated state.

    value sums the weights of atoms in the set; the exact probability
    lies in [value, value + deficit], deficit being the untracked tail
    mass of the truncation.
    """

    value: float
    deficit: float


@dataclass(frozen=True)
class MeasureState:
    """Truncated random measure observed on a time grid.

    sticks has shape (m, n) for m sticks at n times, every entry strictly
    inside (0, 1); atoms is any array-like indexed by stick along its
    first axis and does not change with time.
    """

    times: np.ndarray
    sticks: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.atleast_1d(
            np.asarray(self.times, dtype=float)))
        object.__setattr__(self, "sticks", np.atleast_2d(
            np.asarray(self.sticks, dtype=float)))
        object.__setattr__(self, "atoms", np.asarray(self.atoms))
        if self.sticks.shape[1] != len(self.times):
            raise ValueError("sticks must have one column per time")
        if len(self.atoms) != self.sticks.shape[0]:
            raise ValueError("one atom per stick required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.sticks <= 0.0) or np.any(self.sticks >= 1.0):
            raise ValueError("stick values must lie strictly inside (0, 1)")

    @property
    def m(self) -> int:
        return self.sticks.shape[0]

    @property
    def n_times(self) -> int:
        return self.sticks.shape[1]

    def weights(self, time_index: int | None = None) -> np.ndarray:
        """Stick-breaking weights, one column per time or one vector."""
        v = self.sticks if time_index is None else self.sticks[:, time_index]
        return sticks_to_weights_matrix(v)

    def deficit(self, time_index: int | None = None):
        """Untracked tail mass 1 - sum_j w_j = prod_j (1 - v_j)."""
        v = self.sticks if time_index is None else self.sticks[:, time_index]
        return np.prod(1.0 - v, axis=0)


def sticks_to_weights(v: np.ndarray) -> np.ndarray:
    """Map stick values to weights: w_j = v_j prod_{i<j} (1 - v_i).

    The weights plus the leftover mass prod_j (1 - v_j) sum to one
    exactly, up to rounding.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0) or np.any(v >= 1.0):
        raise ValueError("stick values must lie strictly inside (0, 1)")
    return sticks_to_weights_matrix(v)


def sticks_to_weights_matrix(v: np.ndarray) -> np.ndarray:
    """Unchecked sticks_to_weights, column-wise for an (m, n) matrix."""
    v = np.asarray(v, dtype=float)
    rem = np.ones_like(v)
    rem[1:] = np.cumprod(1.0 - v, axis=0)[:-1]
    return v * rem


def weights_to_sticks(w: np.ndarray) -> np.ndarray:
    """Invert the stick-breaking map: v_j = w_j / (1 - sum_{i<j} w_i).

    The remaining mass is carried multiplicatively through the recovered
    sticks (rem -> rem * (1 - v_j)), which avoids the cancellation of
    1 - cumsum(w). Recovery is inherently ill-conditioned once the
    remainder approaches machine precision: rounding already present in
    the weights then dominates, and the function raises NumericalError,
    as it does when a partial sum genuinely reaches one before the last
    entry. The last stick may come out as exactly 1.0 when the weights
    exhaust all mass.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    v = np.empty_like(w)
    rem = 1.0
    for j, wj in enumerate(w):
        vj = wj / rem if rem > 0.0 else np.inf
        if vj > 1.0 + 1e-9:
            raise NumericalError(
                f"partial weight sum reaches 1 before entry {j} (or the "
                "remaining mass is below numerical resolution); remaining "
                "sticks are undefined"
            )
        v[j] = min(vj, 1.0)
        rem *= 1.0 - v[j]
    return v


def sample_marginal(config: StickConfig,
                    atom_sampler: Callable[[np.random.Generator, int], np.ndarray],
                    trunc_tol: float = DEFAULT_TRUNC_TOL,
                    rng: np.random.Generator | None = None) -> MeasureState:
    """Draw a single-time measure, truncated once the deficit < trunc_tol.

    Sticks are sampled from their Beta(a_j, b_j) marginals and atoms from
    atom_sampler(rng, count). The result is marginally a truncation of
    the Dirichlet (or GEM / Pitman-Yor) process.
    """
    if not (0.0 < trunc_tol < 1.0):
        raise ValueError("trunc_tol must lie in (0, 1)")
    rng = np.random.default_rng() if rng is None else rng
    sticks: list[float] = []
    log_deficit = 0.0
    block = 16
    while log_deficit >= np.log(trunc_tol):
        lo = len(sticks)
        if lo >= MAX_STICKS:
            raise NumericalError(
                f"deficit did not reach {trunc_tol} within {MAX_STICKS} sticks"
            )
        hi = min(lo + block, MAX_STICKS)
        a, b, _ = config.params(hi)
        draws = rng.beta(a[lo:hi], b[lo:hi])
        draws = np.clip(draws, *OPEN_UNIT)
        for v in draws:
            sticks.append(float(v))
            log_deficit += np.log1p(-v)
            if log_deficit < np.log(trunc_tol):
                break
        block = min(2 * block, 1 << 12)
    v = np.array(sticks)
    atoms = np.asarray(atom_sampler(rng, len(v)))
    return MeasureState(times=[0.0], sticks=v[:, None], atoms=atoms)


def evolve(state: MeasureState, config: StickConfig, dt: float,
           rng: np.random.Generator) -> MeasureState:
    """Advance a single-time state by dt through the exact transition law.

    Atoms stay fixed; only the weights move. Each stick moves
    independently given its current value, one vectorised draw per run
    of sticks sharing (a, b, c). Multi-time states raise ValueError:
    moving each column on its own would not preserve the joint path law.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if state.n_times != 1:
        raise ValueError("evolve takes a single-time state")
    v = state.sticks[:, 0]
    new = np.empty_like(v)
    for lo, hi, params in stick_runs(*config.params(state.m)):
        new[lo:hi] = wf.sample_transition(v[lo:hi], dt, params, rng)
    new = np.clip(new, *OPEN_UNIT)
    return MeasureState(times=state.times + dt, sticks=new[:, None],
                        atoms=state.atoms)


def measure_eval(state: MeasureState, time_index: int,
                 predicate: Callable[[np.ndarray], np.ndarray]) -> MeasureProbability:
    """P_t(A) for the set A described by a vectorised atom predicate.

    Returns the summed weight of atoms inside A together with the
    truncation deficit, which bounds the unobserved remainder.
    """
    w = state.weights(time_index)
    mask = np.asarray(predicate(state.atoms), dtype=bool)
    if mask.shape != (state.m,):
        raise ValueError("predicate must return one boolean per atom")
    return MeasureProbability(value=float(w[mask].sum()),
                              deficit=float(state.deficit(time_index)))


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
    (c1 + c2 E) / (1 - c1 theta^2 - c2 E) with E = e^{-rate s}.
    """
    c1, c2, rate = acf_series_constants(theta)
    e = np.exp(-rate * np.asarray(s, dtype=float))
    out = (c1 + c2 * e) / (1.0 - c1 * theta ** 2 - c2 * e)
    return float(out) if out.ndim == 0 else out


def theoretical_acf(theta: float, s):
    """Corr(P_t(A), P_{t+s}(A)) for Dirichlet-process sticks, closed form.

    Equals (1+theta) [(2+theta) + theta e^{-rate s}]
    / [(2+theta)(1+2theta) - theta e^{-rate s}] and does not depend on
    the set A. It decays from 1 at s = 0 to (1+theta)/(1+2theta) as
    s grows. rate is (1+theta)/2, the standard parametrisation.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    if np.any(np.asarray(s) < 0):
        raise ValueError("lag must be nonnegative")
    rate = (1.0 + theta) / 2.0
    e = np.exp(-rate * np.asarray(s, dtype=float))
    out = (1.0 + theta) * ((2.0 + theta) + theta * e) \
        / ((2.0 + theta) * (1.0 + 2.0 * theta) - theta * e)
    return float(out) if out.ndim == 0 else out
