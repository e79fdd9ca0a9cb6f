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
from typing import Sequence

import numpy as np

from . import wf
from .errors import NumericalError
from .wf import WFParams, _positive

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
        theta = _positive("theta", theta)
        if c is None:
            c = theta / 2.0
        return cls(kind="dp", theta=theta, c=_positive("c", c))

    @classmethod
    def pitman_yor(cls, theta: float, sigma: float,
                   c: float = 1.0) -> "StickConfig":
        """Pitman-Yor sticks, Beta(1 - sigma, theta + j sigma) marginals."""
        if not (0.0 <= sigma < 1.0):
            raise ValueError("sigma must lie in [0, 1)")
        # stick 1 needs a_1 + b_1 = 1 + theta > 1; later sticks only grow
        return cls(kind="pitman_yor", theta=_positive("theta", theta),
                   sigma=float(sigma), c=_positive("c", c))

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
        c = _positive("c", c)
        for j, (a, b) in enumerate(pairs, start=1):
            try:
                WFParams(a, b, c)
            except ValueError as exc:
                raise ValueError(f"stick {j}: {exc}") from exc
        terms = [np.log1p(a / b) for a, b in pairs]
        if len(terms) > 1 and all(t2 < t1 for t1, t2 in zip(terms, terms[1:])):
            warnings.warn(
                "stick terms log(1 + a_j/b_j) decrease along the prefix; "
                "divergence of their sum cannot be verified, weights may "
                "not sum to one",
                stacklevel=2,
            )
        return cls(kind="gem", pairs=pairs, c=c)

    def params(self, m: int, theta: float | None = None):
        """(a, b) arrays for the first m sticks; every stick moves at rate c.

        theta defaults to the configured value; the sampler passes its
        current chain state instead. Explicit-pair sticks ignore theta,
        and their last pair repeats beyond the list.
        """
        theta = self.theta if theta is None else theta
        if self.kind == "gem":
            idx = np.minimum(np.arange(m), len(self.pairs) - 1)
            a = np.array([self.pairs[i][0] for i in idx])
            b = np.array([self.pairs[i][1] for i in idx])
        else:
            # a Dirichlet process is Pitman-Yor with sigma = 0, bit for bit
            sigma = self.sigma or 0.0
            a = np.full(m, 1.0 - sigma)
            b = theta + sigma * np.arange(1, m + 1)
        return a, b


def stick_runs(a, b, c: float) -> list[tuple[int, int, WFParams]]:
    """(lo, hi, params) for each maximal run of sticks sharing (a, b), all
    at rate c.

    Draws go one run at a time: a Dirichlet process is one run, and
    Pitman-Yor with sigma > 0 one run per stick.
    """
    pairs = list(zip(a.tolist(), b.tolist()))
    starts = [j for j in range(len(pairs))
              if j == 0 or pairs[j] != pairs[j - 1]]
    return [(lo, hi, WFParams(*pairs[lo], c))
            for lo, hi in zip(starts, starts[1:] + [len(pairs)])]


def sticks_to_weights_matrix(v: np.ndarray) -> np.ndarray:
    """Stick-breaking weights w_j = v_j prod_{i<j} (1 - v_i), column-wise.

    Takes sticks as an (m,) vector or an (m, n) matrix, one column per
    time or replicate, and does not check them. The weights plus the
    leftover mass prod_j (1 - v_j) sum to one, up to rounding.
    """
    v = np.asarray(v, dtype=float)
    rem = np.ones_like(v)
    rem[1:] = np.cumprod(1.0 - v, axis=0)[:-1]
    return v * rem


def sample_sticks(config: StickConfig, trunc_tol: float,
                  rng: np.random.Generator, reps: int = 1) -> np.ndarray:
    """(M, reps) matrix of sticks from their Beta(a_j, b_j) marginals.

    Rows are drawn in blocks of 16, 32, ... up to 4096 sticks, every
    column at once. M is the first row at which every column's deficit
    prod_j (1 - v_j) is below trunc_tol, so each replicate is truncated
    at least as deep as it would be on its own.
    """
    if not (0.0 < trunc_tol < 1.0):
        raise ValueError("trunc_tol must lie in (0, 1)")
    log_tol = np.log(trunc_tol)
    blocks: list[np.ndarray] = []
    log_deficit = np.zeros((1, reps))
    lo, block = 0, 16
    while True:
        if lo >= MAX_STICKS:
            raise NumericalError(
                f"deficit did not reach {trunc_tol} within {MAX_STICKS} sticks"
            )
        hi = min(lo + block, MAX_STICKS)
        a, b = config.params(hi)
        draws = rng.beta(a[lo:hi, None], b[lo:hi, None], size=(hi - lo, reps))
        draws = np.clip(draws, *OPEN_UNIT)
        blocks.append(draws)
        # running sums from the previous row, added one stick at a time
        log_deficit = np.cumsum(
            np.concatenate([log_deficit[-1:], np.log1p(-draws)]), axis=0)[1:]
        done = np.flatnonzero(log_deficit.max(axis=1) < log_tol)
        if done.size:
            return np.concatenate(blocks)[:lo + done[0] + 1]
        lo, block = hi, min(2 * block, 1 << 12)


def move_sticks(sticks: np.ndarray, config: StickConfig, dt: float,
                rng: np.random.Generator) -> np.ndarray:
    """Move an (m, ...) array of sticks by dt through the exact transition.

    Row j holds stick j; each stick moves independently given its
    current value, one vectorised draw per run of rows sharing (a, b).
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    new = np.empty_like(sticks)
    for lo, hi, params in stick_runs(*config.params(len(sticks)), config.c):
        new[lo:hi] = wf.sample_transition(sticks[lo:hi], dt, params, rng)
    return np.clip(new, *OPEN_UNIT)


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
