"""The benchmark's tracer wraps package functions by name; every name must resolve.

``bench/tracing.py`` is loaded by file path and only read: a function it
names (``SPANS``) or a tensor op it counts (``TENSOR_OPS``) that the
package no longer defines would break ``bench/run.py --trace 1``, even
when no forward pass calls it any more.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for mod, attr in tracing.SPANS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod}.{attr}")
    tensor = importlib.import_module(f"{tracing.PACKAGE}.tensor")
    missing += [f"tensor.{op}" for op in tracing.TENSOR_OPS if not callable(getattr(tensor, op, None))]
    assert not missing, f"traced names the package does not define: {missing}"
