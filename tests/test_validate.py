"""Validation-battery record tests."""

from diffmix.validate import QUICK_CHECKS, run_validation


def test_pass_is_the_strict_comparison():
    results = run_validation(names=QUICK_CHECKS)
    assert results
    for res in results:
        assert res.comparison in ("<", ">")
        strict = res.value < res.threshold if res.comparison == "<" \
            else res.value > res.threshold
        assert res.passed is strict, res.line()
