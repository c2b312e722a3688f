"""The benchmark's per-layer tracer wraps package functions by name."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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


# Loads the tracer by path, installs it over the package and runs two
# closed-form optimize commands; prints the call count of every layer.
_TRACED_OPTIMIZE = """
import importlib.util, json, os, sys
from fso_secrecy import cli
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
fixed = ["--scheme", "fixed", "--sth", "0.2"]
adaptive = ["--scheme", "adaptive", "--cb", "4", "--sth", "0.4"]
for argv in (fixed, adaptive):
    assert cli.main(["optimize", *argv, "--out", os.devnull]) == 0
print(json.dumps(t.calls))
"""


def test_the_tracer_sees_the_surrogate_layers_that_run():
    # Each surrogate computation runs under the one name the tracer lists,
    # so a traced solve counts its kernel, outage and solver calls.
    env = dict(os.environ, PYTHONPATH=str(TRACER.parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_OPTIMIZE, str(TRACER)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    calls = json.loads(out)
    for name in (
        "channel.ggp_cdf_approx",
        "secrecy.sop_approx",
        "secrecy.reliability_outage_approx",
        "optimize.fixed_constrained_rb",
    ):
        assert calls[name] > 0, name
