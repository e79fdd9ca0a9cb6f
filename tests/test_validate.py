"""Validation-battery record tests."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from diffmix import validate, wf
from diffmix.validate import QUICK_CHECKS, run_validation
from diffmix.wf import WFParams

from oracles import matrix_bootstrap_acf

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_pass_is_the_strict_comparison():
    results = run_validation(names=QUICK_CHECKS)
    assert results
    for res in results:
        assert res.comparison in ("<", ">")
        strict = res.value < res.threshold if res.comparison == "<" \
            else res.value > res.threshold
        assert res.passed is strict, res.line()


def test_cli_import_leaves_scipy_stats_unloaded():
    # the checks that need scipy.stats import it when they run, so the
    # sampler commands start without it
    code = "import sys, diffmix.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.stdout.strip() == "False"


class TestStreamedKs:
    @staticmethod
    def _samples():
        rng = np.random.default_rng(3)
        p = WFParams.standard(1.0, 4.0)
        path = wf.euler_path(0.5, 3.0, 0.01, p, rng)
        # an Euler path, a sample of the law itself and one far off it,
        # of odd and even lengths
        return [path, rng.beta(1.0, 4.0, size=200),
                rng.beta(3.0, 1.0, size=57)]

    @pytest.mark.parametrize("block", ["7", "n", "above_n"])
    def test_equals_kstest_statistic(self, monkeypatch, block):
        cdf = stats.beta(1.0, 4.0).cdf
        for x in self._samples():
            size = {"7": 7, "n": len(x), "above_n": len(x) + 13}[block]
            monkeypatch.setattr(validate, "_KS_BLOCK", size)
            ref = stats.kstest(x, cdf, method="asymp").statistic
            assert validate._ks_statistic(np.sort(x), cdf) == ref

    def test_full_check_returns_kstest_value_of_its_path(self):
        (res,) = validate.check_euler_ergodic(np.random.default_rng(11))
        path = wf.euler_path(0.5, 1_000_000 * 0.01, 0.01,
                             WFParams.standard(1.0, 4.0),
                             np.random.default_rng(11))
        ref = stats.kstest(path[len(path) // 20:], stats.beta(1.0, 4.0).cdf,
                           method="asymp").statistic
        assert res.value == float(ref)

    def test_full_check_traced_peak_is_bounded(self):
        # the path's values are 8 MB; its times, sorted copies or a
        # full-length CDF array of the tail would add 7.6-8 MB apiece
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            validate.check_euler_ergodic(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak


@pytest.mark.parametrize("seed,reps", [(0, 300), (7, 501)])
def test_acf_bootstrap_rows_match_the_index_matrix(seed, reps):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert validate.check_acf(rng, reps) == matrix_bootstrap_acf(ref_rng,
                                                                 reps)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
