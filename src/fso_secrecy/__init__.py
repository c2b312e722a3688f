"""Secrecy-throughput toolkit for free-space-optical wiretap links.

Closed-form secrecy outage, reliability outage, and effective secrecy
throughput for turbulent optical links with misaligned eavesdropper optics;
wiretap-code rate optimizers for the adaptive and fixed-rate schemes; and a
seeded Monte-Carlo oracle that cross-checks every closed form.
"""

from fso_secrecy.channel import (
    GeometryConfig,
    NodeConfig,
    ScenarioConfig,
    baseline_scenario,
    gamma_approx,
    pointing_params,
    turbulence_params,
)
from fso_secrecy.secrecy import (
    RatePair,
    SecrecyConstraint,
    est_adaptive,
    est_fixed,
    reliability_outage,
    sop,
    sop_approx,
)

__version__ = "0.1.0"

__all__ = [
    "GeometryConfig",
    "NodeConfig",
    "ScenarioConfig",
    "baseline_scenario",
    "turbulence_params",
    "pointing_params",
    "gamma_approx",
    "RatePair",
    "SecrecyConstraint",
    "sop",
    "sop_approx",
    "reliability_outage",
    "est_adaptive",
    "est_fixed",
    "__version__",
]
