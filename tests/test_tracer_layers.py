"""The benchmark's per-layer tracer wraps package functions by name."""

import importlib
import importlib.util
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
