import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from fso_secrecy import cli, optimize
from fso_secrecy.channel import baseline_scenario

# The solvers' memo and the command line's memoized exact outages, bound
# before any test patches their names.
_SOLVER_MEMO = optimize._MEMO
_MEMOIZED_OUTAGES = cli._distinct_outages


@pytest.fixture(autouse=True)
def fresh_solver_caches():
    """Each test, and each fixture set up between two tests, solves afresh,
    so a kernel or scan a test patches reaches the memoized solvers and
    outages; the memo's hit and miss counts start at 0."""
    _SOLVER_MEMO.clear()
    _MEMOIZED_OUTAGES.cache_clear()
    yield
    _SOLVER_MEMO.clear()
    _MEMOIZED_OUTAGES.cache_clear()


@pytest.fixture(scope="session")
def baseline():
    return baseline_scenario()


@pytest.fixture(scope="session")
def pointing_free():
    return baseline_scenario(sigma_s=0.0)
