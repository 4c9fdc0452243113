"""The acceptance gate: every criterion at its stated tolerance and budget.

Prints one PASS/FAIL line per criterion (run pytest with -s to see them all).
"""

import pytest

from catsl2.config import Config
from catsl2.verify import CRITERIA, _check


@pytest.fixture(scope="module")
def cfg():
    return Config()


@pytest.mark.parametrize("name,description,budget,fn",
                         CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, description, budget, fn, cfg):
    result = _check(name, description, budget, lambda: fn(cfg))
    print(result.line())
    assert result.ok, f"{name}: {result.detail}"
    assert result.within_budget, \
        f"{name} took {result.elapsed:.2f}s (budget {budget:.0f}s)"


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_broken_criterion_fails_even_under_optimize_flag(run_python, optimize):
    # END(1_1) computed as zero must be reported FAIL, also when python -O
    # strips assert statements
    script = """
import catsl2.verify as verify
from catsl2.homology import BigradedGroups
verify.integer_homology = lambda z: BigradedGroups()
verify.run_suite(only="end11")
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("FAIL  end11") and "END(1_1) = {}" in out.stdout
