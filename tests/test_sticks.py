"""Stick replicate matrices: shared truncation, pinned streams, marginals.

sample_sticks draws many truncated replicates as one (M, reps) matrix
and move_sticks moves such a matrix through the exact transition law.
The one-replicate stream (a marginal draw, atoms, then a move) is pinned
here by digest.
"""

import hashlib

import numpy as np
import pytest
from scipy import stats

from diffmix import wf
from diffmix.measure import StickConfig, move_sticks, sample_sticks

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


# (stick count, digest of the sticks and atoms, digest of the sticks
# after a move by 0.3): one replicate at trunc_tol 1e-4, then uniform
# atoms, then the move, all from default_rng(seed); None where the move
# costs a lineage table per stick and is left out
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
    sticks = sample_sticks(cfg, 1e-4, rng)
    atoms = uniform_atoms(rng, len(sticks))
    assert sticks.shape == (m, 1)
    assert digest(sticks, atoms) == drawn
    if moved is not None:
        assert digest(move_sticks(sticks, cfg, 0.3, rng)) == moved


def test_move_sticks_keeps_each_pitman_yor_marginal():
    cfg = StickConfig.pitman_yor(1.0, 0.3)
    m, reps = 5, 2000
    rng = np.random.default_rng(17)
    a, b = cfg.params(m)
    start = rng.beta(a[:, None], b[:, None], size=(m, reps))
    moved = move_sticks(start, cfg, 0.4, rng)
    assert moved.shape == (m, reps)
    for j in range(m):
        ks = stats.kstest(moved[j], stats.beta(a[j], b[j]).cdf)
        assert ks.pvalue > 0.001, (j, ks)
    # the move is not the identity
    assert np.mean(moved != start) > 0.99


def test_second_move_of_a_wide_pitman_yor_state_reuses_every_table():
    # each Pitman-Yor stick has its own (a + b, time) table key; past the
    # cache bound every table would be evicted before its reuse. At dt 3
    # every table is resolved in double precision, so the test is quick.
    cfg = StickConfig.pitman_yor(1.0, 0.25)
    m = 140
    rng = np.random.default_rng(3)
    a, b = cfg.params(m)
    sticks = rng.beta(a[:, None], b[:, None], size=(m, 1))
    move_sticks(sticks, cfg, 3.0, rng)
    misses = wf._lineage_cumulative.cache_info().misses
    move_sticks(sticks, cfg, 3.0, rng)
    assert wf._lineage_cumulative.cache_info().misses == misses
