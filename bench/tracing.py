"""Per-layer tracing by wrapping the package's public functions from outside.

``Tracer.install`` replaces each traced function, in every module of the
package that holds it, by a wrapper that records a span: its name, its
parent span and its duration. Tensor ops are counted and timed apart from
the span stack, since they sit under every other layer; their backward
rules are timed by wrapping ``Tape.record``. ``uninstall`` puts the
original functions back, so untraced operations run the program as is.

Figures are kept per phase ("setup" and "op") and normalized by how many
set-ups and operations ran traced.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

TENSOR_OPS = (
    "add", "sub", "mul", "div", "matmul", "softmax_lastdim", "sigmoid", "gelu", "sqrt",
    "mean_axis", "sum_all", "mean_all", "reshape", "swap_last2", "broadcast_to", "concat",
    "take_lastdim", "avg_downsample", "moving_average", "linear_interp", "patchify", "unpatchify",
)

# (module, function) -> span name. Methods are given as "Class.method".
SPANS = {
    ("synthgen", "generate_dataset"): "synthgen.generate",
    ("synthgen", "export_dataset"): "synthgen.export",
    ("synthgen", "export_mask"): "synthgen.export",
    ("data", "make_windows"): "data.make_windows",
    ("data", "read_csv_matrix"): "data.read_csv",
    ("model", "model_forward"): "model.forward",
    ("model", "scale_forward"): "model.scale",
    ("model", "decompose"): "model.decompose",
    ("model", "encoder_forward"): "model.encoder",
    ("model", "save_checkpoint"): "model.checkpoint_save",
    ("model", "load_checkpoint"): "model.checkpoint_load",
    ("model", "CrossScaleNet.predict"): "model.predict",
    ("attention", "cross_patch_attention"): "attention.cross_patch",
    ("attention", "patch_attention"): "attention.patch",
    ("attention", "local_attention"): "attention.local",
    ("train", "train"): "train.train",
    ("train", "mse_loss"): "train.loss",
    ("train", "adam_step"): "train.adam",
    ("train", "evaluate"): "train.eval",
    ("tensor", "Tape.backward"): "tensor.backward",
    ("explain", "model_saliency"): "explain.saliency",
    ("explain", "collect_records"): "explain.collect",
    ("explain", "aggregate_saliency"): "explain.aggregate",
    ("explain", "ig_attribution_map"): "explain.ig",
    ("explain", "feature_ablation"): "explain.ablation",
    ("explain", "sufficiency"): "explain.sufficiency",
    ("explain", "comprehensiveness"): "explain.comprehensiveness",
    ("explain", "export_report_files"): "explain.export",
    ("cli", "main"): "cli.main",
    ("cli", "cmd_explain"): "cli.explain",
}

# Layers paid at set-up: their figures add the per-set-up cost to the per-operation cost.
SETUP_LAYERS = ("synthgen.", "data.", "model.checkpoint_save")

PACKAGE = "crossscalenet"


class PhaseStats:
    """Everything recorded in one phase."""

    def __init__(self):
        self.span_s = defaultdict(float)          # name -> total seconds
        self.span_calls = defaultdict(int)
        self.child_s = defaultdict(float)         # parent name -> seconds in child spans
        self.under_s = defaultdict(float)         # (name, parent) -> seconds
        self.under_calls = defaultdict(int)       # (name, parent) -> calls
        self.op_fwd_s = defaultdict(float)
        self.op_bwd_s = defaultdict(float)
        self.op_calls = 0
        self.taped_ops = 0
        self.taped_bytes = 0
        self.all_bytes = 0
        self.predicted_windows = 0
        self.record_bytes = 0
        self.step_s: list[float] = []


class Tracer:
    def __init__(self):
        self.phases = {"setup": PhaseStats(), "op": PhaseStats()}
        self.counts = {"setup": 0, "op": 0}
        self.cur = self.phases["setup"]
        self._stack: list[str] = []
        self._op: str | None = None
        self._step_start = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    def begin(self, phase: str) -> None:
        """Count one more traced set-up or operation and record into it."""
        self.counts[phase] += 1
        self.cur = self.phases[phase]

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")}
        for (mod, attr), name in SPANS.items():
            owner = mods[f"{PACKAGE}.{mod}"]
            if "." in attr:
                cls, meth = attr.split(".")
                klass = getattr(owner, cls)
                self._patch(klass, meth, self._span(name, getattr(klass, meth)))
            else:
                self._patch_everywhere(mods, getattr(owner, attr), self._span(name, getattr(owner, attr)))
        tensor = mods[f"{PACKAGE}.tensor"]
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            self._patch_everywhere(mods, fn, self._tensor_op(op, fn))
        self._patch(tensor.Tape, "record", self._record(tensor.Tape.record))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, mods, original, wrapper) -> None:
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(name)
            t0 = time.perf_counter()
            if name == "model.forward" and parent == "train.train":
                tracer._step_start = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                stats = tracer.cur
                stats.span_s[name] += t1 - t0
                stats.span_calls[name] += 1
                stats.under_s[(name, parent)] += t1 - t0
                stats.under_calls[(name, parent)] += 1
                stats.child_s[parent] += t1 - t0
            if name == "train.adam":
                stats.step_s.append(t1 - tracer._step_start)
            elif name == "model.predict":
                stats.predicted_windows += len(args[1]) if np.ndim(args[1]) == 3 else 1
            elif name == "explain.collect":
                stats.record_bytes += sum(r.patch_weights.nbytes + r.local_weights.nbytes for r in result)
            return result

        return wrapper

    def _tensor_op(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            outer, tracer._op = tracer._op, name
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._op = outer
            stats = tracer.cur
            stats.op_fwd_s[name] += time.perf_counter() - t0
            stats.op_calls += 1
            stats.all_bytes += out.data.nbytes
            return out

        return wrapper

    def _record(self, original):
        tracer = self

        def record(tape, inputs, output, backward):
            name = tracer._op
            stats = tracer.cur
            stats.taped_ops += 1
            stats.taped_bytes += output.data.nbytes

            def timed(g):
                t0 = time.perf_counter()
                grads = backward(g)
                tracer.cur.op_bwd_s[name] += time.perf_counter() - t0
                return grads

            return original(tape, inputs, output, timed)

        return record

    # -- figures ---------------------------------------------------------------

    def _per_op(self, fn, with_setup: bool = False) -> float:
        """fn(phase stats) per traced operation, plus per traced set-up if asked."""
        phases = ("setup", "op") if with_setup else ("op",)
        return sum(fn(self.phases[p]) / self.counts[p] for p in phases if self.counts[p])

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures: ms and counts per traced operation; set-up layers
        add their cost per traced set-up."""
        out: dict[str, tuple[float, str]] = {}

        def ms(metric: str, fn) -> None:
            out[metric] = (1e3 * self._per_op(fn, metric.startswith(SETUP_LAYERS)), "ms")

        def count(metric: str, fn) -> None:
            out[metric] = (self._per_op(fn), "count")

        op = self.phases["op"]
        n_tapes = sum(c for (name, _), c in op.under_calls.items() if name == "tensor.backward")
        n_forwards = op.span_calls["model.forward"]
        if n_tapes:
            ops_per_step, bytes_per_step = op.taped_ops / n_tapes, op.taped_bytes / n_tapes
        elif n_forwards:
            ops_per_step, bytes_per_step = op.op_calls / n_forwards, op.all_bytes / n_forwards
        else:
            ops_per_step = bytes_per_step = 0.0
        out["tensor.ops_per_step"] = (ops_per_step, "count")
        out["tensor.out_mb_per_step"] = (bytes_per_step / 1e6, "MB")
        for name in TENSOR_OPS:
            ms(f"tensor.{name}.fwd_ms", lambda s, n=name: s.op_fwd_s[n])
            ms(f"tensor.{name}.bwd_ms", lambda s, n=name: s.op_bwd_s[n])

        def span(name: str) -> None:
            ms(name + "_ms", lambda s: s.span_s[name])

        def under(name: str, parent: str):
            return lambda s: s.under_s[(name, parent)]

        for name in ("attention.cross_patch", "attention.patch", "attention.local",
                     "model.forward", "model.scale", "model.decompose", "model.encoder"):
            span(name)
        ms("model.other_ms", lambda s: s.span_s["model.forward"] - s.child_s["model.forward"])
        span("model.predict")
        count("model.predict_calls", lambda s: s.span_calls["model.predict"])
        count("model.predicted_windows", lambda s: s.predicted_windows)
        span("model.checkpoint_save")
        span("model.checkpoint_load")

        count("train.steps", lambda s: s.under_calls[("train.adam", "train.train")])
        for q in (50, 90):
            out[f"train.step_ms_p{q}"] = (1e3 * float(np.percentile(op.step_s, q)) if op.step_s else 0.0, "ms")
        ms("train.forward_ms", lambda s: under("model.forward", "train.train")(s)
           + under("train.loss", "train.train")(s))
        ms("train.backward_ms", under("tensor.backward", "train.train"))
        ms("train.adam_ms", under("train.adam", "train.train"))
        ms("train.eval_ms", under("train.eval", "train.train"))
        ms("train.other_ms", lambda s: s.span_s["train.train"] - s.child_s["train.train"])

        for stage in ("saliency", "collect", "aggregate", "ig", "ablation", "sufficiency",
                      "comprehensiveness", "export"):
            span(f"explain.{stage}")
        out["explain.record_mb"] = (self._per_op(lambda s: s.record_bytes) / 1e6, "MB")
        count("explain.ig_tapes", lambda s: s.under_calls[("tensor.backward", "explain.ig")])

        for name in ("data.make_windows", "data.read_csv", "synthgen.generate", "synthgen.export",
                     "cli.explain"):
            span(name)
        ms("cli.other_ms", lambda s: sum(s.span_s[n] - s.child_s[n] for n in ("cli.main", "cli.explain")))
        return out
