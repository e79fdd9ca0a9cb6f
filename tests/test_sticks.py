"""Stick replicate matrices: shared truncation, pinned streams, marginals.

sample_sticks draws many truncated replicates as one (M, reps) matrix
and move_sticks moves such a matrix through the exact transition law.
sample_marginal and evolve are their one-replicate cases, so their
output for a given generator is pinned here by digest.
"""

import hashlib

import numpy as np
import pytest
from scipy import stats

from diffmix.measure import (StickConfig, evolve, move_sticks,
                             sample_marginal, sample_sticks)

CONFIGS = {
    "dp": StickConfig.dp(1.0),
    "dp_small_theta": StickConfig.dp(0.3),
    "pitman_yor": StickConfig.pitman_yor(1.0, 0.25),
    "gem_three_pairs": StickConfig.general_gem(
        [(1.0, 1.0), (1.0, 2.0), (1.5, 2.5)]),
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def uniform_atoms(rng, n):
    return rng.uniform(size=n)


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_truncation_is_the_first_row_every_column_passes(name, seed):
    tol, reps = 1e-3, 300
    v = sample_sticks(CONFIGS[name], tol, np.random.default_rng(seed), reps)
    assert v.shape[1] == reps
    assert np.all((v > 0.0) & (v < 1.0))
    # the deficit accumulated as sample_sticks accumulates it
    log_deficit = np.vstack([np.zeros((1, reps)),
                             np.cumsum(np.log1p(-v), axis=0)])
    assert np.all(log_deficit[-1] < np.log(tol))
    assert np.any(log_deficit[-2] >= np.log(tol))


# (sticks and atoms, sticks after evolve by 0.3) of sample_marginal with
# uniform atoms at trunc_tol 1e-4 from default_rng(seed); None where the
# evolve costs a lineage table per stick and is left out
PINNED = {
    ("dp", 0): (4, "d9366fb92463856e", "8e1213a2eb1f89af"),
    ("dp", 1): (9, "12a089d5876d2c7c", "cfbacabd02e0ab8a"),
    ("dp", 2): (9, "1ff631a9f6c90b4f", "017eeb100bf0b31d"),
    ("dp_small_theta", 0): (2, "f82f68da8981cf12", "dd6315f781155ec4"),
    ("dp_small_theta", 1): (4, "5ce446b2b74673ae", "b6984854ce23fa05"),
    ("dp_small_theta", 2): (2, "d58d745c53cf8e7b", "31729e567e7e5835"),
    ("pitman_yor", 0): (69, "cee223dcb417e660", None),
    ("pitman_yor", 1): (130, "cbd6ec8a4623c80e", None),
    ("pitman_yor", 2): (128, "15892cfe6c06df6a", None),
    ("gem_three_pairs", 0): (17, "2f3c070fce920ad3", "68bd1e5eef51f0f8"),
    ("gem_three_pairs", 1): (19, "9249e8550f619da8", "30e1bc9d17abc424"),
    ("gem_three_pairs", 2): (12, "3201e74cca8ff467", "512a830c0266cfc8"),
}


@pytest.mark.parametrize("key", PINNED, ids=lambda k: f"{k[0]}-{k[1]}")
def test_sample_marginal_and_evolve_streams_pinned(key):
    name, seed = key
    m, drawn, moved = PINNED[key]
    cfg = CONFIGS[name]
    rng = np.random.default_rng(seed)
    state = sample_marginal(cfg, uniform_atoms, 1e-4, rng)
    assert state.m == m
    assert digest(state.sticks, state.atoms) == drawn
    if moved is not None:
        assert digest(evolve(state, cfg, 0.3, rng).sticks) == moved


def test_move_sticks_keeps_each_pitman_yor_marginal():
    cfg = StickConfig.pitman_yor(1.0, 0.3)
    m, reps = 5, 2000
    rng = np.random.default_rng(17)
    a, b, _ = cfg.params(m)
    start = rng.beta(a[:, None], b[:, None], size=(m, reps))
    moved = move_sticks(start, cfg, 0.4, rng)
    assert moved.shape == (m, reps)
    for j in range(m):
        ks = stats.kstest(moved[j], stats.beta(a[j], b[j]).cdf)
        assert ks.pvalue > 0.001, (j, ks)
    # the move is not the identity
    assert np.mean(moved != start) > 0.99
