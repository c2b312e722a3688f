import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from fso_secrecy import cli, optimize
from fso_secrecy.channel import baseline_scenario

# The memoized solvers and the command line's memoized exact outages, bound
# before any test patches their names.
_MEMOIZED_SOLVERS = (
    optimize.re_threshold,
    optimize.adaptive_unconstrained_re,
    optimize.fixed_unconstrained_pair,
    cli._distinct_outages,
)


@pytest.fixture(autouse=True)
def fresh_solver_caches():
    """Each test, and each fixture set up between two tests, solves afresh,
    so a kernel or scan a test patches reaches the memoized solvers and
    outages."""
    for solve in _MEMOIZED_SOLVERS:
        solve.cache_clear()
    yield
    for solve in _MEMOIZED_SOLVERS:
        solve.cache_clear()


@pytest.fixture(scope="session")
def baseline():
    return baseline_scenario()


@pytest.fixture(scope="session")
def pointing_free():
    return baseline_scenario(sigma_s=0.0)
