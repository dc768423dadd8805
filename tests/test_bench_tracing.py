"""The benchmark's tracer wraps package functions by name; every name must resolve.

``bench/tracing.py`` is loaded by file path and only read: a function it
names (``SPANS``) or a tensor op it counts (``TENSOR_OPS``) that the
package no longer defines would break ``bench/run.py --trace 1``, even
when no forward pass calls it any more. It counts taped ops and times
their backward rules by wrapping ``Tape.record``, so every op must
record through that method.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import crossscalenet.cli  # noqa: F401  (the tracer patches every module of the package)
from crossscalenet.model import CrossScaleNet, ModelConfig
from crossscalenet.tensor import Tape, Tensor, mean_all, mul

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


def test_tracer_counts_every_taped_op_and_times_the_backward():
    tracing = load_tracing()
    config = ModelConfig(lookback=32, horizon=8, n_features=3, n_scales=2, patch_len=8, decomp_kernel=5)
    model = CrossScaleNet(config, seed=0)
    x = np.random.default_rng(0).standard_normal((4, 32, 3))
    record = Tape.record
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin("op")
        with Tape() as tape:
            forecast, _ = model.forward(Tensor(x))
            tape.backward(mean_all(mul(forecast, forecast)))
    finally:
        tracer.uninstall()
    assert Tape.record is record
    stats = tracer.phases["op"]
    assert stats.taped_ops == len(tape) > 0
    assert sum(stats.op_bwd_s.values()) > 0.0
