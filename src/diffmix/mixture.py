"""Gaussian mixture layer on top of the random measure.

Atoms are (mean, precision) pairs and the observation density at time t
is f_t(y) = sum_j w_j(t) N(y | mean_j, 1 / precision_j). Atom priors use
the conjugate normal-gamma family: precision ~ Gamma(shape, rate) and
mean | precision ~ Normal(mean0, 1 / (precision_scale * precision)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TimeGridDataset
from .measure import sticks_to_weights_matrix
from .wf import _positive

LOG_2PI = math.log(2.0 * math.pi)

# Toy data generator: N(cos(2t) + t/2, 1/10) sampled on an even grid.
TOY_VARIANCE = 0.1


@dataclass(frozen=True)
class CenteringMeasure:
    """Normal-gamma law for atom parameters.

    precision ~ Gamma(shape, rate);
    mean | precision ~ Normal(mean0, 1 / (precision_scale * precision)).
    """

    mean0: float = 0.0
    precision_scale: float = 1e-3
    shape: float = 10.0
    rate: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean0):
            raise ValueError(f"mean0 must be finite, got {self.mean0}")
        for name in ("precision_scale", "shape", "rate"):
            _positive(name, getattr(self, name))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw atoms as a (size, 2) array of (mean, precision) rows."""
        prec = rng.gamma(self.shape, 1.0 / self.rate, size=size)
        mean = rng.normal(self.mean0,
                          1.0 / np.sqrt(self.precision_scale * prec))
        return np.column_stack([mean, prec])


def gaussian_logpdf(y, means, precisions):
    """log N(y | mean, 1 / precision), broadcasting over all arguments."""
    y = np.asarray(y, dtype=float)
    means = np.asarray(means, dtype=float)
    precisions = np.asarray(precisions, dtype=float)
    # a squared distance past double range gives the exact -inf
    with np.errstate(over="ignore"):
        return 0.5 * (np.log(precisions) - LOG_2PI) \
            - 0.5 * precisions * (y - means) ** 2


def renormalised_mixture(sticks: np.ndarray, values: np.ndarray,
                         time_index: np.ndarray | None = None):
    """Mixture average sum_j w_j(t) values_j / (1 - prod_j (1 - v_j(t))).

    The stick-breaking weights of the (m, n) stick matrix are divided by
    the mass the m components keep at each time, so a mixture of kernel
    densities integrates to one. Where every stick at a time is below
    about 1.1e-16, 1 - prod_j (1 - v_j) rounds to 0 and the kept mass is
    -expm1(sum_j log1p(-v_j)) instead; every other kept mass is the
    product form, bit for bit. Without time_index, values is (m,) or
    (m, g), shared by every time, and the result is (n,) or (n, g). A
    (k, m, n) stack of stick matrices takes a (k, m) or (k, m, g) stack
    of values and gives (k, n) or (k, n, g), each matrix's slice the bits
    its own call gives. With time_index, values is (N, m) and row i is
    averaged at time time_index[i], giving (N,).
    """
    sticks = np.asarray(sticks, dtype=float)
    kept = 1.0 - np.prod(1.0 - sticks, axis=-2)
    lost = kept == 0.0
    if lost.any():
        kept[lost] = -np.expm1(np.log1p(-sticks).sum(axis=-2))[lost]
    if time_index is not None:
        w = sticks_to_weights_matrix(sticks)
        return np.einsum("jn,nj->n", w[:, time_index], values) \
            / kept[time_index]
    # each matrix's weights (m, n) in C order, so a stacked product makes
    # the BLAS call each matrix's own product makes
    w = sticks_to_weights_matrix(sticks.swapaxes(0, -2)).swapaxes(0, -2)
    w = np.ascontiguousarray(w).swapaxes(-1, -2)
    values = np.asarray(values, dtype=float)
    vector = values.ndim < sticks.ndim
    out = w @ (values[..., None] if vector else values)
    out /= kept[..., None]
    return out[..., 0] if vector else out


def toy_mean(t):
    """Mean cos(2t) + t/2 of the toy generator."""
    t = np.asarray(t, dtype=float)
    out = np.cos(2.0 * t) + 0.5 * t
    return float(out) if out.ndim == 0 else out


def toy_density(t, y):
    """Density of the toy generator at (t, y)."""
    y = np.asarray(y, dtype=float)
    out = np.exp(gaussian_logpdf(y, toy_mean(t), 1.0 / TOY_VARIANCE))
    return float(out) if out.ndim == 0 else out


def simulate_toy(n_times: int, per_time: int, t_max: float,
                 rng: np.random.Generator) -> TimeGridDataset:
    """Sample the toy dataset: per_time draws from N(cos(2t) + t/2, 1/10)
    at n_times equally spaced times on [0, t_max]."""
    if n_times < 1 or per_time < 1:
        raise ValueError("n_times and per_time must be at least 1")
    _positive("t_max", t_max)
    times = np.linspace(0.0, t_max, n_times)
    sd = math.sqrt(TOY_VARIANCE)
    values = tuple(rng.normal(toy_mean(t), sd, size=per_time) for t in times)
    return TimeGridDataset(times=times, values=values)
