"""The benchmark's traced run wraps each ``(layer, name)`` in
``bench/tracer.py``'s ``TRACED`` by ``getattr``; a renamed or deleted
function would break ``bench/run.py --trace 1``."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for layer, name in tracer.TRACED:
        fn = getattr(importlib.import_module(f"coset_ewens.{layer}"), name, None)
        assert callable(fn), f"coset_ewens.{layer}.{name}"
