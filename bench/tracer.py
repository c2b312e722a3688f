"""Per-layer spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces every binding of each traced function -- the
defining module's attribute and every ``from ... import`` copy in the other
package modules -- with a wrapper that counts calls and accumulates self
time: the span's duration minus the time covered by traced calls made inside
it.  Spans are kept as running totals in memory and read out once at the end.
The stack of open spans is a plain list, so the traced program must run on
one thread (the workloads pass ``--jobs 1``).
"""

from __future__ import annotations

import functools
import sys
import time

#: Traced public functions, by package module (the layers).
LAYERS = {
    "specfun": ("hyp1f2_reg_cond", "exp_integral", "reg_gamma_q", "lambert_w"),
    "channel": ("gg_cdf", "ggp_cdf", "ggp_cdf_approx"),
    "secrecy": (
        "sop",
        "sop_approx",
        "reliability_outage",
        "reliability_outage_approx",
        "est_fixed",
        "est_adaptive",
    ),
    "optimize": (
        "re_threshold",
        "fixed_optimal",
        "adaptive_optimal",
        "fixed_constrained_rb",
        "grid_refine_maximize",
    ),
    "montecarlo": (
        "sample_eve_irradiance",
        "sample_bob_irradiance",
        "estimate_sop",
        "estimate_reliability_outage",
        "estimate_est",
    ),
    "cli": ("cmd_validate", "cmd_sweep", "cmd_optimize"),
}

PACKAGE = "fso_secrecy"

# Samplers whose ``size`` argument (third positional) counts as draws.
_SAMPLERS = ("montecarlo.sample_eve_irradiance", "montecarlo.sample_bob_irradiance")


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.draws = 0
        self._open: list[float] = []  # child time covered, per open span

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        open_spans = self._open
        calls = self.calls
        self_s = self.self_s
        counts_draws = name in _SAMPLERS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counts_draws:
                self.draws += args[2] if len(args) > 2 else kwargs["size"]
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt

        return span

    def install(self) -> None:
        """Wrap every traced function under every name it is bound to."""
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["montecarlo.draws"] = self.draws
        return out
