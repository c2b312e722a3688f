"""The benchmark's per-layer tracer wraps package functions by name."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_layer_function_resolves_to_a_callable():
    # A renamed or deleted function would leave the traced run without its
    # span: Tracer.install raises on it, and the run reports no layers.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, fns in tracer.LAYERS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        missing += [f"{mod_name}.{fn}" for fn in fns if not callable(getattr(module, fn, None))]
    assert tracer.span_names()
    assert missing == []


# Loads the tracer by path, installs it over the package, counts the calls of
# the private kernel boundary channel._kernel by a patch, and runs two
# closed-form optimize commands, one per scheme; prints the call count of
# every layer and the boundary's.
_TRACED_OPTIMIZE = """
import importlib.util, json, os, sys
from fso_secrecy import channel, cli
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
kernel, kernel_calls = channel._kernel, []
channel._kernel = lambda *a: kernel_calls.append(1) or kernel(*a)
fixed = ["--scheme", "fixed", "--sth", "0.2"]
adaptive = ["--scheme", "adaptive", "--cb", "4", "--sth", "0.4"]
for argv in (fixed, adaptive):
    assert cli.main(["optimize", *argv, "--out", os.devnull]) == 0
print(json.dumps({"calls": t.calls, "kernel": len(kernel_calls)}))
"""


@pytest.fixture(scope="module")
def traced_optimize():
    env = dict(os.environ, PYTHONPATH=str(TRACER.parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_OPTIMIZE, str(TRACER)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def test_the_tracer_sees_the_surrogate_layers_that_run(traced_optimize):
    # Each surrogate computation runs under the one name the tracer lists,
    # so a traced solve counts its kernel, outage and solver calls.
    calls = traced_optimize["calls"]
    for name in (
        "channel.ggp_cdf_approx",
        "secrecy.sop_approx",
        "secrecy.reliability_outage_approx",
        "optimize.fixed_optimal",
        "optimize.adaptive_optimal",
    ):
        assert calls[name] > 0, name


def test_the_tracer_counts_every_kernel_call(traced_optimize):
    # Every kernel evaluation, exact or surrogate, the solvers' array calls,
    # scans and grids included, passes the boundary under a traced name.
    calls = traced_optimize["calls"]
    kernels = ("channel.gg_cdf", "channel.ggp_cdf", "channel.ggp_cdf_approx")
    assert all(calls[name] > 0 for name in kernels)
    assert traced_optimize["kernel"] == sum(calls[name] for name in kernels)
